"""Byte-determinism pinned: sha256 of every deterministic artifact of five small runs.

A drift fails and names the files. An intended numeric change re-pins the table
and declares the drift in CHANGES.md; a drift after a numpy upgrade is fixed by
owning the distribution transforms, not by loosening the pin.
"""
import hashlib
import json

import pytest

import switchnet as sn

MULTI_UNIT = ["switch.entries.2=[1,2,3]"]

RUNS = {
    "default": [],
    "multi-unit-router-mean": MULTI_UNIT,
    "multi-unit-linear-readout": MULTI_UNIT + ["network.aggregation=linear-readout"],
    # group 2 routes to no unit, groups 1 and 4 to three and two: readout rows of 0, 1, 2 and 3 slots
    "none-active-linear-readout": ["network.aggregation=linear-readout", "switch.fallback=none-active",
                                   'switch.entries={"0":[0],"1":[1,2,3],"3":[3],"4":[4,0]}'],
}

# re-pinned when the data and shuffle streams became one generator per use (declared drift)
COMMON = {
    "attribution.json": "fa9e9845b4fc12be4a73013cec064477bbaf7e1d09dfcf53e8eecfbef35a917e",
    "dataset.csv": "28d210b32b83e4bdc2d579bad96e33ce9b9f9cd46fc3e7cd50123cce31f9566e",
    "fed_report.json": "eed4b7c6dfffdcefb72e7e1a2b10fb06a07f3ebbfb75fdebd0ccdebb3298bcfc",
    "heatmap.csv": "8500be667062d498660885f08142c6a2eaa59c121a0f90e71a3976529ec88094",
    "heatmap.svg": "71e2ccb49eab7e2d9eeb8efaf4fcf3aa653dc13f91e7cf8da14ef96a93a680f3",
    "metrics_non_overlapping.json": "26019530e59c3c874516d26f0e26cdd73d4751d92408b3d209c2e604a65b1182",
    "metrics_overlapping.json": "6f9068a11af8a13f72877595740d5f1dfdcf55d35d2f934d0ffcf3144a18a6e5",
    "partition.json": "fe5268d49ffdd574b07f7c8f5a2acb5d1cbbe3cd959ecac1ca87fce1f03a0825",
    "test_sets.json": "968f0b3d357dcb81b71ef71962a9c54f207751e0aec7ef6e51b2595350f1011c",
    "unit_0.json": "8408bdca9730b76fb755f30eaad6ea1609e00378e0f44513a96d0e2ba12b24aa",
    "unit_1.json": "b6709dcf06f0697094e74f226245ccad7cb3dc37ccbad081b3de1debdbe055f2",
    "unit_2.json": "ac7c400ac0bcc313498cc21ae1bd17ba88d1aacfe8cccf46c3b1a6336a7b8bd7",
    "unit_3.json": "3859c1e5f8962803c01e6709d1eec0c9c7e4f50f5f16c3dd05ab0043c91aede4",
    "unit_4.json": "fef7a62f6c911fc0de22703ef446161045089ffa800b5fbe88f0f51e17410c46",
}

PINNED = {
    "default": {**COMMON,
        "config.json": "f03349a07507e8c0dd2db76959f47e70e8e3d2244dee1de22685bb2616348909",
        "contribution.json": "27813c94f796aa08e9fbaa27e8606ed8c30feae6bae51ea31c60da5677199516",
        "manifest.json": "94da6fdce96cb1f4ed778a17c378275f3d0fc8e149119f2361b4662313c56e57",
        "network.json": "f9ea30eb94a8151b8e82ffffc9c0d447d1e719c6ffefd3f2d996683ab37fa3a6"},
    "multi-unit-linear-readout": {**COMMON,
        "config.json": "21cf3eaa18de121524e08f220753b72a20ed84641adca8002173ba60cc6b8b50",
        "contribution.json": "27813c94f796aa08e9fbaa27e8606ed8c30feae6bae51ea31c60da5677199516",
        "manifest.json": "0adecd8916eebe895c4d255e20977cbd4759dd58101762a0a9b4fd6c092c9413",
        "network.json": "d70c054797e86437fbd0dd472d6896dec066150fdc3d0c49688c06bfb68f1ed5"},
    "multi-unit-router-mean": {**COMMON,
        "config.json": "ddd8a2eb8e0025ee4a98ef3ac5ce4ae1d685a2bd31be97b7cf5c5a854b63b7f6",
        "contribution.json": "30a7af715d7d5a91e0642ea6d630331472f4157e77452a5953274355fbc15243",
        "manifest.json": "6812fb4165dbaa444a7c14736cda38c4350f5ec2d1358cc8ecf405c7d82e80ec",
        "network.json": "93e27c5387c8049a83aa576ceeabbad54a9c2e4df5022f5e30140e1050e55a77"},
    "none-active-linear-readout": {**COMMON,
        "config.json": "ade01220b2b075f6e184f4b5a82b8bb507cb12069560f017adf5e7edcf059c66",
        "contribution.json": "27813c94f796aa08e9fbaa27e8606ed8c30feae6bae51ea31c60da5677199516",
        "manifest.json": "187b0efcd6fb10ee9b3608661cadfcc7851e98cddc4e2a4bd0a553f0026e56a2",
        "network.json": "b6fad7c913a7e9b39d2683b8529e214b1e381cff31fc4ea4b0dd554f9b4f419b"},
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


# the packaged data written back with id 3k + 7 for id k and its rows reversed, so its
# ids are neither 0..n-1 nor in row order: no id is its own row's position
CSV_INPUT = {
    "attribution.json": "f5285c4a78bfaaeaecf37fd61db8d27efabbe09ce8fe38c4b6b1c3b02a5c7f3b",
    "config.json": "84495b967d1bfc61b04acb60c94e23e000234aeb0e16b6ff856e4c59d459ff34",
    "contribution.json": "27813c94f796aa08e9fbaa27e8606ed8c30feae6bae51ea31c60da5677199516",
    "dataset.csv": "63b1316c8f3c8c84df7781c21956aaca1de37ff86b91fc4958b1eb85e94dcbe6",
    "fed_report.json": "85cff866a145abdd23a54c853ee493eeb23155c92cba882cbd4c2e9e61d6cfde",
    "heatmap.csv": "775690ccb2dbdfbad3c3666b39384c4fb53d0c10af94d433744fed88cd1bd99f",
    "heatmap.svg": "adf9a8cad804c6d1ca7775fe5d039aa5560d09b3e69493fbf7f35db37af4b97f",
    "manifest.json": "c5b27b5618c9fadad68507b622f26cf62aee0a1f8a49d25bd3bc99d8ae03d4dc",
    "metrics_non_overlapping.json": "26019530e59c3c874516d26f0e26cdd73d4751d92408b3d209c2e604a65b1182",
    "metrics_overlapping.json": "6f9068a11af8a13f72877595740d5f1dfdcf55d35d2f934d0ffcf3144a18a6e5",
    "network.json": "4aa856aba80e4fa72ba85ab2e31f11c808c035c44fa94de58677157fa1691aa6",
    "partition.json": "dafe2030375981fa5a06dd433971b42620d02a621de95859b6d1f975e2534abe",
    "test_sets.json": "2d40f04ba7d43b31ba454ba118cf8da0e2ee368c503eec8df48a4b9c980e2074",
    "unit_0.json": "a068a369caa53d41f6d44507f5e9853f4de8814d0e74367d04370a6b7b115379",
    "unit_1.json": "e71d5ea2cf043d50093843c74e279e9de5fae4ed13cbc4d73c1d591efaf4de88",
    "unit_2.json": "c132021cbb7ce853f4d6dc2ecbc1f81587b4742bcd120122a84b0699fbc57664",
    "unit_3.json": "f45e25336560df6eaf1ab1df2be502136a57c0c8267577e1774cdf6318101273",
    "unit_4.json": "8739adade510d48465c1359408985d4c72ae215704efce07e5800389dab22361",
}


def test_csv_input_bundle_digests_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    packaged = sn.load_config(sn.default_config_path())
    data = sn.generate_synthetic(packaged.specs, packaged.seed)
    sn.save_dataset(sn.Dataset(dim=data.dim, groups=data.groups, ids=3 * data.ids[::-1] + 7,
                               row_groups=data.row_groups[::-1], labels=data.labels[::-1],
                               features=data.features[::-1]), "data.csv")
    doc = json.loads(sn.default_config_path().read_text(encoding="utf-8"))
    doc["data"] = {"dataset": "data.csv", "holdout_fraction": 0.2}
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    # a relative config path keeps config.json's dataset path relative, so the bytes are path-free
    config = sn.load_config("config.json", ["output.dir=out", "network.workers=1", *MULTI_UNIT,
                                            "network.aggregation=linear-readout"])
    bundle = sn.run_pipeline(config)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in bundle.deterministic_paths()}
    moved = sorted(name for name in digests.keys() | CSV_INPUT.keys()
                   if digests.get(name) != CSV_INPUT.get(name))
    assert not moved, f"csv-input: digests moved for {moved}"
