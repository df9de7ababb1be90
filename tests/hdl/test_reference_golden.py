"""Golden outputs and error paths of the reference simulation.

The digests pin, per IP, the power trace (``power.values.tobytes()``) and
every functional-trace column of the reference flow — HDL simulation
plus the activity-based power estimator — on the short-TS suite and on
``long_ts(2000, seed=1)``.  They were computed with the row-at-a-time
simulator that preceded the columnar one, so any change to the value
or float summation order of a single sample shows here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.hierarchy import run_hierarchical_power_simulation
from repro.hdl.module import Module
from repro.hdl.simulator import Simulator
from repro.power.estimator import run_power_simulation
from repro.testbench import BENCHMARKS
from repro.traces.variables import bool_in, int_in, int_out

GOLDEN = {
    "AES/long": {
        "data": "c5bd62815abf0812d8d5cf4cd1b3d695d950ffae3dc120b16819dca903430b8a",
        "decrypt": "9a3d067f20655a29e3e1a6af2279714effb68d402910305efcba89ebfb7d533f",
        "done": "2b12baf42dafed0cbbb967b9e2e27498041de5060d67785541e278ff3a120a7c",
        "en": "70286436b681da5d5a8b2d5277f9db36bfb24c3629e2e45ef8715f78b5e3e7cb",
        "key": "7c8497d1cf8aefc9f0001aeea5f331995e74c097284e5953674d4e1af89c8dc2",
        "load_key": "d44816c52a666eb52ef7e5f89db048cf381477f3aba16601314466a540949227",
        "out": "b12b165a875bd16a56a6b7617aa6d5dd50ac3078f7276a1802430a9f08e94719",
        "power": "9cafee9ffb0e81902e7d857653bba465a87a605de863261cd3d7bab25cdf37ba",
        "start": "8e26eb8d7d03fbf85ced40b962bcd7039b585515f1452e2cb1b9220c66e888ba",
    },
    "AES/short": {
        "data": "c04340af025b3818d4746e06c756e981327c1be911921ed7508af4d457b25823",
        "decrypt": "8a681308925e83c5db0f4f3481fd211f85bdce71fc0ea3680b7a535b62fa1208",
        "done": "5f5ad2833e4a184829df81123e50e4533dc598231c6770dd64186190195acf1c",
        "en": "bdd887d97c4c64dac1e2ffb73cc507ddf0f116de2b30b3144a8e68fbc38c187c",
        "key": "fb743f9b71451cde451ca1cd19b431b96d2ed48390e21534b51ce6fb0233b748",
        "load_key": "c46d4c0b419cd20ac714192d7e3294f6f30d0716f70d6095efc41521d8917e21",
        "out": "3f5f05c72aba7b14231a4fc79ad13bc51151131ee3d44ce051342e4946a0c227",
        "power": "c29f01acac750ac1dd799cedbba005117afc618b83f5ab0d819f97cc7c479513",
        "start": "f22e70f0f00599cfba370e3c8113e5f079ee881e4779729ee48a83194b46c86c",
    },
    "Camellia/long": {
        "data": "8044c83ead3c4848ff003f010152fc96c88bfb208799c52f76b2d041aca3c339",
        "decrypt": "9aa48517f65207fe058c69e07d3ee075f9b411b3e07ec0bd06f5b02498a3101a",
        "done": "369c7f68de4cbbfbade0d31303f6734b02d49811701c1623ed207c839ccff27f",
        "en": "57f94741a93b90486d33196e741b6cdeadb0d2d7a5fb0c03b5e057893007c437",
        "key": "96cafe9a46afc11a16ae107dc73f479fb18dd2b5a4a3b37df85cdf3616a00370",
        "load_key": "b08a75ca971314218f8ddbee5e8216b6af2bda40e694bcbbea21072cf57e0b7b",
        "mode": "bbf8f46fc0849fc64ca5f314c853ed5e3892ef2ad656619116694715953ba8cc",
        "out": "deaf7b4396bfe979156b6be6786e6df173c9ed0da4a56631da6bfcd2d1c57051",
        "power": "d6d0fb86f49c44d0d37b1d2763ebe83b27bd161c1ca11ca96b7e6860d189f667",
        "start": "bcd70e42652dd696535052d892ad139e80a225b232f4fc4613858e3cf2dd9966",
    },
    "Camellia/short": {
        "data": "d96cdc90f375f55d86708afafa56dcf192f665dc0f3a3f209ef0419b183b794c",
        "decrypt": "148784ad353bdbab98c7388beef03c045d3f2905f4a3e8a8860ddb38053a39d7",
        "done": "0f83be4420f85a774c40e27a5f350285b622c43f1c98b4ab763c89836086bb2d",
        "en": "9ac74ccd9f1d50a778905e55dfadd66e7a313569286b0214587faad41236d3a0",
        "key": "a7e72efcad1633947e20e2123f40493aa696a6ea4d248de6f901008c4dcaff37",
        "load_key": "7cc61095da7ced58b4a40f9fa5e4f59874f1dfca7667a63e335f564863e108e2",
        "mode": "278ba256f301f6baf5e1874cd6a23d261af49e23ca7195e6b8799a43a2ac7896",
        "out": "7ea45dbac4bc1b8d4dd66a9a36f8bf8253c51fe824a5f263c773b1bd65fb513d",
        "power": "60126807b179988a8b59f639718eba0f667d5f176349a038f95143b67fd52ab4",
        "start": "6d3f8e7597f812d1fe1471aa82ab4a386eaac23876fb23af0ed43a085f922e09",
    },
    "MultSum/long": {
        "a": "0a3da456c5c65823e7805ccea461b9da9f689f9ce3b0bf8ff21f5a847da3fae6",
        "b": "db72191915f2b4aebdd670fb9a036239339da584fd8b647ee7d0daa91ad4d736",
        "c": "b1eca947c520e36601f3fb28f9f5b82ee1083edc412055c6194acc9058319536",
        "clear": "d3423edc9bdd47614661d7af6e278dbc902d6ef5d2f8c2a87a4ce65802f5a8c0",
        "power": "f798c81f1d87c4d76a35be3cccc26b7723e2320874976b632f2d368772c0e2e1",
        "result": "31be69b946f5e8f72ea202599104de4cd796348f9bf334cb227053c0ccada5d5",
    },
    "MultSum/short": {
        "a": "35d7803a0aab530094464c41546af692c62a5ca4712e8030959bfbf0b50532ed",
        "b": "8b308c470810e25c398bb4747d2cc2b3dc331c42600153d5db13e9e4d75349e8",
        "c": "5338fd7662412227918e179ef0c1b3df6eee5d717617a67460abe5f4e59120ed",
        "clear": "dd256277e10b45fc25ff1a548f11a0133307af2f2f9072a231d53550565a0565",
        "power": "397ddd2a34d371e50028fe433020831496ade14c82716c3466d34b0c01a1d355",
        "result": "785c5f0a62532f29aaf22ffd1e2f29dae60df3eb808a1c0dd8b06198eb1bae93",
    },
    "RAM/long": {
        "addr": "57b9a58465622d2e65a49483b0d16194af3a9080fe7dbafce3bdf3d4ee9b8b46",
        "cs": "c70bc2ed28e380d3a23bdf1b39b8ef2312a60f9f1473a6a6e6b7fb73952b5720",
        "en": "bfb5e4008135344c7fe2f4a80089d0af587cc454c0beea6dd5a3535a5ddb6739",
        "power": "c924ab6197dd7a5612c00b7e8f6303cdf03e31573e884be849bba2ac74186999",
        "rdata": "87891cf21e766c4fdb7c515738beab08f1dd69ddc512e964691a9cb9ce603e64",
        "rst": "80ed02f225189b07b127134e9f12763444903fd595d6bb1c43518ab327cd0fc8",
        "wdata": "bf7f122658ec71783b4f65831087acdaa26b5f514bf1485f3f60de2493fc61c0",
        "we": "dd77490a033ab1f13454da4fb81a0a92702753f6a672a186f55dfa53a2958774",
    },
    "RAM/short": {
        "addr": "796be25320b0498cf1e4058a9376d57a455094a4af2689214f60588814d667eb",
        "cs": "8fac878c893c569c8caea984ec932d07e69bc809600196373c322efb9ca11688",
        "en": "bb5e35b6fa7d40de3073e7d2b50834006fba371e700f29f2ed1dfc269b742fa7",
        "power": "86038aeb03d70b5e482dfa449d5ae3c3f0e808997efaf644cbe636c794ae7375",
        "rdata": "b470fcb16668c6cec2abd6fadd0ffef24eed07b788bbc4411b8cc9b789c5ec41",
        "rst": "d068111bbf16a892a82f824c3e980e4fa7b02c28965286d809df0b60a997eb1b",
        "wdata": "b39356e95decd87d8099401655f67b325457e062ec8dccf318511782d6b3234d",
        "we": "edee6d738c47b3c0c7da28a7abab6a1179a7cf76f184a48a2299470ab0104400",
    },
}

GOLDEN_PROBES = {
    "AES/probes": {
        "power.clock_tree": "3682c549823e898988c3a0386b5d71c5b17c43aad00f9c4b5f35a7dfc359d6af",
        "power.control": "97e28f079fe9d989d4acf467c3447901dfd4fe3bb0ae956fec3ccdc3dfb9c755",
        "power.io": "677f84b5d25b37b5e51be9e2289b3a3621bbb34cee11f2924601f96262a32e36",
        "power.key_schedule": "dac6f03c560ad9e0e58a03d73e51732a01eee9f98133a7cf3d114370e72fb9b0",
        "power.round_datapath": "3e54780dc98ce43d90b158678fd17b31266d185cd5a74c1f4a8c0c1106764b3e",
        "power.sbox_network": "78bc9558e5755d8e387dc043b543b3a3db66432370438bc0dd6c5ec898069fdc",
        "round_counter": "b0042d71e18d633a834503ebe8c4ebbd03134d6324850cda670d97bf88340bb4",
    },
    "Camellia/probes": {
        "cycle_counter": "4643c9c8d124e8bf64c4172d95a17c7e89a5b8d3252f862314ec18220f2de8d8",
        "power.clock_tree": "54a093f3daa5b49dd895d717263a996edad8b83e32624d3690f72d0519a96fa0",
        "power.control": "805466722c147895febaff9b0541078242dd881f185d6d2e5afe83d00293cf9f",
        "power.feistel_left": "a6e659b12f166d6a85f865748e1f0ccb717f6b0b5c62fb9b16cd0132c5d7a537",
        "power.feistel_right": "1c5e1efd76957228232cf8b1a2ebc6550d3e0432f3427d24d280a305d207899e",
        "power.fl_layer": "b5cb23c27c72393748a7943ffd4cb41ee2e9c160eb34c3cb930c15942956bef7",
        "power.io": "69216f4db6986b8ecc5b5a3e0d6655a03bfa436a9d91b2a9529106d5ce03f23e",
        "power.key_schedule": "68dcb7d0f89879c522bdad938c9156d5871d43641b2cf9b0f47582bac9daebde",
        "power.sbox_unit": "96aab866880009eebfb652e5db1e51121011e8fe862c699dcc3e163658a60125",
    },
    "MultSum/probes": {
        "power.accumulator": "77e949d2284bd4b8124e477035cb858295320d1418ddfd6f51db1c0355b2f3df",
        "power.clock_tree": "50774c7d3dc54d041eb6fca3e69c2b4ff03ca9924c05a6b4bce0d5600c15bb89",
        "power.input_regs": "cfedd7360e53a77e85766803670f4813fa3770ae8c9f254110a38ba23d38482b",
        "power.multiplier": "dca65ea14d6567dda397c4a92ea5ebce103e08d11aa2f47a26e980166ab67da0",
    },
    "RAM/probes": {
        "power.array": "cca6c249c36556e077706e787412ce411d4a82cb64ec5ebce2e43cb243fdd3a4",
        "power.clock_tree": "9e286f9704616b50234266bc4ab3535752dafdce9aa004a3ee354cac3ad27644",
        "power.decoder": "81addf430b0274c691f275b1f0d6ce4d6feed1452f5acf4435da355724c477e7",
        "power.io": "cdbde15aa2c5bc88a342ec1230a9ee981290a2d02c2e930ce6d26db7417635c4",
    },
}

COMPONENTS = {
    "AES": [
        "round_datapath",
        "key_schedule",
        "control",
        "io",
        "clock_tree",
        "sbox_network",
    ],
    "Camellia": [
        "feistel_left",
        "feistel_right",
        "key_schedule",
        "control",
        "io",
        "clock_tree",
        "sbox_unit",
        "fl_layer",
    ],
    "MultSum": [
        "input_regs",
        "multiplier",
        "accumulator",
        "clock_tree",
    ],
    "RAM": [
        "array",
        "io",
        "decoder",
        "clock_tree",
    ],
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def column_digest(trace, name: str) -> str:
    """Digest of a column's decimal text (wide buses hold Python ints)."""
    return digest(",".join(map(str, trace.column(name).tolist())).encode())


def suite(ip: str, kind: str):
    spec = BENCHMARKS[ip]
    return spec.short_ts() if kind == "short" else spec.long_ts(2000, seed=1)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_reference_traces_match_golden_digests(key):
    ip, kind = key.split("/")
    spec = BENCHMARKS[ip]
    reference = run_power_simulation(spec.module_class(), suite(ip, kind))
    expected = GOLDEN[key]
    got = {"power": digest(reference.power.values.tobytes())}
    for name in reference.trace.variable_names:
        got[name] = column_digest(reference.trace, name)
    assert got == expected


@pytest.mark.parametrize("ip", sorted(COMPONENTS))
def test_component_order_is_stable(ip):
    # The power estimator sums components in this order, so it is part
    # of the bitwise contract: register domains first, then domains
    # that first report activity mid-run.
    spec = BENCHMARKS[ip]
    activity = Simulator(spec.module_class()).run(spec.short_ts()).activity
    assert activity.components == COMPONENTS[ip]


@pytest.mark.parametrize("ip", sorted(BENCHMARKS))
def test_include_probes_columns_unchanged(ip):
    spec = BENCHMARKS[ip]
    result = run_hierarchical_power_simulation(
        spec.module_class(), spec.short_ts()
    )
    got = {
        f"power.{name}": digest(trace.values.tobytes())
        for name, trace in result.components.items()
    }
    for probe in spec.module_class.PROBES:
        got[probe.name] = column_digest(result.trace, probe.name)
    assert got == GOLDEN_PROBES[f"{ip}/probes"]
    # Recording probes leaves the PI/PO columns and total power alone.
    plain = GOLDEN[f"{ip}/short"]
    assert digest(result.total.values.tobytes()) == plain["power"]
    for var in spec.module_class.trace_specs():
        assert column_digest(result.trace, var.name) == plain[var.name]


class Buses(Module):
    """A pass-through DUT with a 1-, a 32- and a 128-bit input."""

    NAME = "buses"
    INPUTS = (bool_in("flag"), int_in("word", 32), int_in("block", 128))
    OUTPUTS = (int_out("echo", 32),)

    def __init__(self):
        super().__init__()
        self._echo = self.reg("echo_reg", 32)

    def step(self, inputs):
        self._echo.load(inputs["word"])
        return {"echo": self._echo.value}


def good_row(**overrides):
    row = {"flag": 1, "word": 0xDEADBEEF, "block": (1 << 128) - 1}
    row.update(overrides)
    return row


class TestRunErrors:
    def test_missing_input_raises_key_error(self):
        row = good_row()
        del row["word"]
        with pytest.raises(KeyError, match="missing input 'word'"):
            Simulator(Buses()).run([good_row(), row])

    @pytest.mark.parametrize(
        "name, value",
        [
            ("flag", 2),
            ("flag", -1),
            ("word", 1 << 32),
            ("word", -5),
            ("block", 1 << 128),
            ("block", -1),
        ],
    )
    def test_out_of_range_raises_value_error(self, name, value):
        with pytest.raises(ValueError, match=f"out of range for {name}"):
            Simulator(Buses()).run([good_row(**{name: value})])

    @pytest.mark.parametrize(
        "name, value", [("flag", 3), ("word", 1 << 40), ("block", 1 << 129)]
    )
    def test_bad_value_in_last_cycle_raises(self, name, value):
        stimulus = [good_row() for _ in range(50)]
        stimulus.append(good_row(**{name: value}))
        seen = []
        with pytest.raises(ValueError, match=str(value)):
            Simulator(Buses()).run(
                stimulus, observer=lambda cycle, row: seen.append(cycle)
            )
        # Validated up front: no cycle ran on a partly bad stimulus.
        assert seen == []

    def test_first_bad_value_in_column_order_is_reported(self):
        stimulus = [good_row(), good_row(word=1 << 33), good_row(word=1 << 34)]
        with pytest.raises(ValueError, match=str(1 << 33)):
            Simulator(Buses()).run(stimulus)

    def test_out_of_range_output_raises(self):
        class Wide(Buses):
            def step(self, inputs):
                return {"echo": 1 << 32}

        with pytest.raises(ValueError, match="out of range for echo"):
            Simulator(Wide()).run([good_row()])

    def test_generator_stimulus_runs(self):
        stimulus = [good_row(word=k) for k in range(20)]
        from_list = Simulator(Buses()).run(stimulus)
        from_gen = Simulator(Buses()).run(row for row in stimulus)
        assert from_gen.cycles == 20
        for name in from_list.trace.variable_names:
            assert (
                from_gen.trace.column(name).tolist()
                == from_list.trace.column(name).tolist()
            )
        assert from_gen.trace.column("echo").tolist() == list(range(20))
        assert (
            from_gen.activity.column("core").tolist()
            == from_list.activity.column("core").tolist()
        )

    def test_empty_stimulus(self):
        result = Simulator(Buses()).run([])
        assert result.cycles == 0 and len(result.trace) == 0
        assert len(result.activity) == 0
