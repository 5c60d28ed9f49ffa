"""Byte-determinism pinned: sha256 of every deterministic artifact of three small runs.

A drift fails and names the files. An intended numeric change re-pins the table
and declares the drift in CHANGES.md; a drift after a numpy upgrade is fixed by
owning the distribution transforms, not by loosening the pin.
"""
import hashlib

import pytest

import switchnet as sn

MULTI_UNIT = ["switch.entries.2=[1,2,3]"]

RUNS = {
    "default": [],
    "multi-unit-router-mean": MULTI_UNIT,
    "multi-unit-linear-readout": MULTI_UNIT + ["network.aggregation=linear-readout"],
}

# recorded at the parent of the columnar gated table; that change passes it unchanged
COMMON = {
    "attribution.json": "de5c69691e8b1b3061c95a4b39dab1bca4f9cbfaf7a01f1948172959504b364e",
    "dataset.csv": "06ad64a670784aaba1f8915f05b56c0f10e8d072ce067040a3b06a78a09ff44d",
    "fed_report.json": "dbd0d00385dd710a378c8a765254b775018e47fddcff13845a8cd3a4400e4a97",
    "heatmap.csv": "6d01f86a8484202a8ccdd93f49acffc3afc62c8f633b7ab37ca8edfd0fee8fd5",
    "heatmap.svg": "6f474b98e206418f6cc647ca77dca8358439c83169eead58fdcc14011c309d34",
    "metrics_non_overlapping.json": "26019530e59c3c874516d26f0e26cdd73d4751d92408b3d209c2e604a65b1182",
    "metrics_overlapping.json": "6f9068a11af8a13f72877595740d5f1dfdcf55d35d2f934d0ffcf3144a18a6e5",
    "partition.json": "fe5268d49ffdd574b07f7c8f5a2acb5d1cbbe3cd959ecac1ca87fce1f03a0825",
    "test_sets.json": "968f0b3d357dcb81b71ef71962a9c54f207751e0aec7ef6e51b2595350f1011c",
    "unit_0.json": "655f7401cd3492a1050dd91d09942114b9a9bf4e921fe94d3f8e513e03b306a8",
    "unit_1.json": "572431757f4a8247dee85075ab286d40a3bb2549f3d152570f186d2197c04f0e",
    "unit_2.json": "bff498b54594d4d98757da660bf9fb1b0873042fd9d44727dd42848d56680861",
    "unit_3.json": "b4edb74240a7dc14f030963cf19cbe67aa4fe74eda547413eafda16bc2d6b9ce",
    "unit_4.json": "58eba1a8a3847c9254e478f78e8c455155a9eafd3e4262c8376dc861c9d19cf7",
}

PINNED = {
    "default": {**COMMON,
        "config.json": "f03349a07507e8c0dd2db76959f47e70e8e3d2244dee1de22685bb2616348909",
        "contribution.json": "27813c94f796aa08e9fbaa27e8606ed8c30feae6bae51ea31c60da5677199516",
        "manifest.json": "94da6fdce96cb1f4ed778a17c378275f3d0fc8e149119f2361b4662313c56e57",
        "network.json": "bde33f47f52541a38700a3b667155abdbcde51b7960fbdb1575ade9a437d242e"},
    "multi-unit-linear-readout": {**COMMON,
        "config.json": "21cf3eaa18de121524e08f220753b72a20ed84641adca8002173ba60cc6b8b50",
        "contribution.json": "27813c94f796aa08e9fbaa27e8606ed8c30feae6bae51ea31c60da5677199516",
        "manifest.json": "0adecd8916eebe895c4d255e20977cbd4759dd58101762a0a9b4fd6c092c9413",
        "network.json": "cdf4a0e7342cb69e57372a2b2cf69d5e0a35e0d512e41776ddec519ce6d7d701"},
    "multi-unit-router-mean": {**COMMON,
        "config.json": "ddd8a2eb8e0025ee4a98ef3ac5ce4ae1d685a2bd31be97b7cf5c5a854b63b7f6",
        "contribution.json": "30a7af715d7d5a91e0642ea6d630331472f4157e77452a5953274355fbc15243",
        "manifest.json": "6812fb4165dbaa444a7c14736cda38c4350f5ec2d1358cc8ecf405c7d82e80ec",
        "network.json": "44a7fa7f9fdd7f11d3204ac24103a93f64eb18aa19bf12a44b24402d44c74767"},
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_bundle_digests_are_pinned(tmp_path, monkeypatch, run):
    # a relative output.dir keeps config.json and the manifest's config hash path-free
    monkeypatch.chdir(tmp_path)
    config = sn.load_config(sn.default_config_path(),
                            ["output.dir=out", "network.workers=1"] + RUNS[run])
    bundle = sn.run_pipeline(config)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in bundle.deterministic_paths()}
    pinned = PINNED[run]
    moved = sorted(name for name in digests.keys() | pinned.keys()
                   if digests.get(name) != pinned.get(name))
    assert not moved, f"{run}: digests moved for {moved}"
