"""Golden digests of planner output, compare CSVs, evaluate reports, LP
text, workload files and the exact oracle's schedules and their lifts.

The digests were recorded from the original quadratic-scan planner,
list-based simulator and term-tuple model builder.  The oracle's were
recorded from its column pass (now _exact_rows) and lift_schedule before
exact_schedule replaced the matrix-returning oracle, whose shortest path
had reproduced the enumeration of request slot sets byte for byte.  Any
change to one byte of a schedule, a compare CSV, an evaluate report, an
exported model, a workload file, an oracle schedule or its lift fails here,
without running the benchmark.  After an intended output change, re-record
with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as g; print(g.compare_digests()); \
print(g.long_horizon_digests()); print(g.lp_digests()); \
print(g.lp40_digests()); print(g.lp101_digests()); \
print(g.oracle_digests()); \
print(g.workload_digests())"

and paste each dictionary over its *_GOLDEN table.
"""

import hashlib

from capsched import (
    SCENARIO_PRESETS,
    CompareSpec,
    Config,
    ScenarioParams,
    adaptive_schedule,
    build_model,
    evaluate,
    exact_schedule,
    export_lp,
    format_schedule,
    format_workload,
    generate_workload,
    greedy_schedule,
    lift_schedule,
    resource_cost,
    run_compare,
)
from capsched.cli import _report_lines

COMPARE_SEEDS = range(20)
WORKLOAD_N = 100
WORKLOAD_SEEDS = range(20)
LONG_N = 2000
LONG_SEEDS = range(3)
LP_N = 16
LP_SEEDS = range(3)
LP40_N = 40
LP101_N = 101
# (n, delta, theta, amplitude) of the oracle grid
ORACLE_SHAPES = ((8, 2, 3, 2), (10, 2, 3, 2), (10, 3, 4, 2), (9, 2, 4, 3), (10, 2, 5, 1),
                 (10, 3, 5, 2), (7, 2, 3, 4), (10, 4, 6, 2), (6, 2, 3, 3), (10, 2, 8, 2))
ORACLE_SEEDS = range(40)
ORACLE_PLATEAUS = (0.0, 0.3, 0.6)
PLANNERS = {"ads": adaptive_schedule, "greedy": greedy_schedule}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _preset(name: str, n: int, seed: int):
    values = SCENARIO_PRESETS[name]
    config = Config(n=n, delta=values["delta"], theta=values["theta"])
    params = ScenarioParams(name=name, amplitude=values["amplitude"],
                            plateau_fraction=values["plateau_fraction"],
                            seed=seed)
    return config, params


def compare_digests():
    """Digest of the one-seed ``run_compare`` CSV per preset and seed."""
    out = {}
    for name in sorted(SCENARIO_PRESETS):
        for seed in COMPARE_SEEDS:
            config, params = _preset(name, SCENARIO_PRESETS[name]["n"], seed)
            spec = CompareSpec(config=config, scenario=params, seeds=(seed,),
                               algorithms=("ads", "greedy"))
            out[f"{name}/{seed}"] = _digest(run_compare(spec))
    return out


def long_horizon_digests():
    """Digests of each planner's schedule text and evaluate report on mmog
    cut to LONG_N slots."""
    out = {}
    for seed in LONG_SEEDS:
        config, params = _preset("mmog", LONG_N, seed)
        workload = generate_workload(params, config)
        for algorithm, planner in PLANNERS.items():
            schedule = planner(workload, config)
            report = evaluate(workload, schedule, config)
            out[f"{algorithm}/schedule/{seed}"] = _digest(
                format_schedule(config, schedule))
            out[f"{algorithm}/evaluate/{seed}"] = _digest(
                "".join(line + "\n" for line in _report_lines(report)))
    return out


def lp_digests():
    """Digest of the exported model of oppd cut to LP_N slots."""
    out = {}
    for seed in LP_SEEDS:
        config, params = _preset("oppd", LP_N, seed)
        workload = generate_workload(params, config)
        out[f"oppd/{seed}"] = _digest(export_lp(build_model(workload, config)))
    return out


def lp40_digests():
    """Digests of the exported model at the benchmark's size: oppd and mmog
    cut to LP40_N slots, and a model whose objective has no terms at all."""
    out = {}
    for name in ("mmog", "oppd"):
        for seed in LP_SEEDS:
            config, params = _preset(name, LP40_N, seed)
            workload = generate_workload(params, config)
            out[f"{name}/{seed}"] = _digest(export_lp(build_model(workload, config)))
    # every objective weight n - j - delta is zero, so the objective
    # falls back to " obj: 0 x_1_1"
    config = Config(n=3, delta=2, theta=3)
    workload = generate_workload(ScenarioParams(name="flat", amplitude=4, seed=0), config)
    out["n3/empty-objective"] = _digest(export_lp(build_model(workload, config)))
    return out


def lp101_digests():
    """Digests of the exported model of mmog and oppd cut to LP101_N slots,
    where variable names pass from two to three digits inside a row,
    recorded from the renderer that wrapped every row on its own."""
    out = {}
    for name in ("mmog", "oppd"):
        config, params = _preset(name, LP101_N, 0)
        workload = generate_workload(params, config)
        out[f"{name}/0"] = _digest(export_lp(build_model(workload, config)))
    return out


def oracle_digests():
    """Digest per shape of the oracle's outcome on every seed and plateau
    fraction: the cost, the changes and the lift's three matrices, or, for a
    seed of more than 8 participants, the refusal text compare notes when it
    skips that seed."""
    out = {}
    for n, delta, theta, amplitude in ORACLE_SHAPES:
        config = Config(n=n, delta=delta, theta=theta)
        lines = []
        for seed in ORACLE_SEEDS:
            for plateau in ORACLE_PLATEAUS:
                params = ScenarioParams(name="grid", amplitude=amplitude,
                                        plateau_fraction=plateau, seed=seed)
                workload = generate_workload(params, config)
                participants = int(workload.arrivals.sum())
                if participants > 8:
                    outcome = (f"refused {participants} participants exceed the search "
                               f"limit max_total_participants=8")
                else:
                    schedule = exact_schedule(workload, config)
                    matrices = lift_schedule(workload, schedule, config)
                    outcome = repr((resource_cost(schedule, config), schedule.changes.tolist(),
                                    matrices.allocations.tolist(),
                                    matrices.deallocations.tolist(),
                                    matrices.requests.tolist()))
                lines.append(f"{seed} {plateau} {outcome}\n")
        out[f"{n}/{delta}/{theta}/{amplitude}"] = _digest("".join(lines))
    return out


def workload_digests():
    """Digest of the workload text of mmog and oppd at WORKLOAD_N slots per
    seed, and of mmog cut to LONG_N slots."""
    out = {}
    for name in ("mmog", "oppd"):
        for seed in WORKLOAD_SEEDS:
            config, params = _preset(name, WORKLOAD_N, seed)
            out[f"{name}/{seed}"] = _digest(
                format_workload(config, generate_workload(params, config)))
    for seed in LONG_SEEDS:
        config, params = _preset("mmog", LONG_N, seed)
        out[f"mmog-long/{seed}"] = _digest(
            format_workload(config, generate_workload(params, config)))
    return out


COMPARE_GOLDEN = {
    "mmog/0":
        "140a87ebd95e3451b56effc50fa51611e2e63384429d3ce3619457536b2a4b30",
    "mmog/1":
        "4fe1634b130312b6b97fd35cabc7710b482c2078316816147ad238878582a942",
    "mmog/2":
        "f9ac229d29c07e42c412d925a337f991266873aa48fbc011873e9d22e9dad813",
    "mmog/3":
        "7368296e26f9d9cae2171b8aa352e742884b7956f64fb8e84f9bf2d9f8a83ad2",
    "mmog/4":
        "202b003674a00d500a240a3495ecce9db9aadbe18ed4c4597528435215bb6840",
    "mmog/5":
        "3fc358c8fab0cc03041bdad5da10c2467a39c236c2db5461ce6d0dc495e287ca",
    "mmog/6":
        "a3965769d5ab1206ec074889aae87dc57fcbd6264d1e134e317031dd3a64af75",
    "mmog/7":
        "0227bd603566e5db228caa1f726e179428aac9b71b9d93c8d66946fef1906d01",
    "mmog/8":
        "92578afc6fc24babbe2e33193a14d8f58ab12a2f2626e5c06efd59cb5e38cf8e",
    "mmog/9":
        "f50fdb29d30936f5e3c8b5716b68885d8cae3972e3193fd3ff17204db24fe4e5",
    "mmog/10":
        "7d3aad70da350870928ffc042be3eae014c9aa7eda2f0fb8c0bb2c0a381cf33a",
    "mmog/11":
        "1e944f00848b04fa91cb36cf963686cb02839ee184f8abb1909db5be5d7fe667",
    "mmog/12":
        "622fd1d38c16b9a3b7ede545d23771dc9a289b522a22da06062d4ec05f82b5cd",
    "mmog/13":
        "50199e1e57827bfcccc6a6e803a9b03b362805d7a8e4ffa039c988358499ce98",
    "mmog/14":
        "61d75e258f2b6446312b84281ec970cac18d7e91eef1f134a87d4959502cdfae",
    "mmog/15":
        "545bd2da5f7b3e174809623f222fb53b57c670f3e1fd6e9740516cb5eeca1376",
    "mmog/16":
        "31d2e7ef33029390813f9a74ffdb511bba9aa88d0e4fe30938e374657c900679",
    "mmog/17":
        "2a4c6550e874d06e52c96139b209c7551306a6a63fcec9cf5279256643190bfd",
    "mmog/18":
        "900d44bdf4c434684b73b58d0903bcd19123efda7bc486670b03a16087e24ed8",
    "mmog/19":
        "f9e8afb34698b8cd30a17b01f16989cdb7e137bd96d00e0e5affedddb260d937",
    "oppd/0":
        "6d52ac97446674f10aafd06cebe1ce49843d717933c214cbfcb4b9398aa962ca",
    "oppd/1":
        "d60eb7ac07bc56667da2ae62ae9ae71cbefefce9607c335204b748838673effe",
    "oppd/2":
        "7fb9263faf1fb00568d7f765729f87ba96c72a3fd2c504fefc83ccee958feae8",
    "oppd/3":
        "72bd666e79fa9e3e845ed886c93fc33f79b41cf0496845ece58d29cc51f3944d",
    "oppd/4":
        "850cc61d9b819c33a9490b32bca6e63baa8ad386095e0f3615e6887c045015f9",
    "oppd/5":
        "eb65bb2387974294760e13cd1ee7f8a89bc5ca9c4612a589a184d9995f2a95f9",
    "oppd/6":
        "470ddee780d3852ab35a6722145aa3bc300b41eba3293e22087ad0b7891f35d6",
    "oppd/7":
        "ed546a7bc8cd0e83bbf6379f5e843518b3e8df6113ae0126c3ce07556a791ea1",
    "oppd/8":
        "ba00b159b53c95695a14ba6f535261f515af1836b5c52ef6bbdb2d8cd01e054f",
    "oppd/9":
        "88f3af159e656c5a55c6c3a9d2dad4d06e0442353587a9e2c1270c9c552d6d49",
    "oppd/10":
        "b35be9ce8cc7194e5c9947094480f905cb950aef4e239b0f02ba693e582b708d",
    "oppd/11":
        "31fa777775a1f1a6984d8fd95070bc107966fef0f1c07325f7f20e1554c669ef",
    "oppd/12":
        "a6e93c50e1c08387c03a852e3afd90340a2c8fd21c5d8b08548a97850050ed84",
    "oppd/13":
        "c1602b4e30434f06f16f367aa43dfe1f9ed3e7afe06eac3de76eb69c95af2219",
    "oppd/14":
        "ee5cca2a858eb7674fe11a575bf7b61f7bd8a4885ee1360a96591512e40b9439",
    "oppd/15":
        "ea19575f415e9117187d7bf734e82ec42f7638690df3405058496a6aac59f333",
    "oppd/16":
        "d68714b6f72321187c3b3fd3338e354ee5aac6a23877a3ce60b3e6b5e57c258b",
    "oppd/17":
        "82f40f744497e4092803a7873c115af16a9a416c3ecd163bd8fc8ee6995bf1e0",
    "oppd/18":
        "62aca28a5a85da184ef560edc17844ec82a12672e27c49dcf9deaf419cce05ef",
    "oppd/19":
        "417375bd53b75e35849628cc527cbdb7c8f305c4303f65eedb9ee544695a4364",
}

LONG_HORIZON_GOLDEN = {
    "ads/schedule/0":
        "5129633851478e9e772356cfb492f94e4fff57f6db1f6d29c6225ecf68c59952",
    "ads/evaluate/0":
        "5e9d49b30f98ccf31f5895dbfc92c0edcefb281f069fd82c5070c887ff007f24",
    "greedy/schedule/0":
        "e27e549181d298883b9a67b0039599b99b21f3af31343751bc31cb053a561b66",
    "greedy/evaluate/0":
        "99380f31492ef782f1ea1e2e53f52233e7d0ff052010045644afb3428ceff991",
    "ads/schedule/1":
        "9f078d8524a3b8e0cd139a1a9bdea2959c685fb4290ac3662171e6b9a0d2253e",
    "ads/evaluate/1":
        "daa2522942151a203df2f59b629a244c4b0a689038c6ead334e679be41f0a211",
    "greedy/schedule/1":
        "e3df6cc183d1e6aa38358ae38a8a96d6353384afbdc55cb7121fb0ee044c2bf7",
    "greedy/evaluate/1":
        "861a1395d2ebbb37661e6f8923763a1a14231b1ff7baa599d97584bbce1d8324",
    "ads/schedule/2":
        "07089a3a4c10419af8ed7ca588b8c313252b8ff94e6d218c6ac6167c7e08b7bb",
    "ads/evaluate/2":
        "745442d49a16890dab87486533de860ff09930cb41a52ddda1c9d0812e094b5d",
    "greedy/schedule/2":
        "3949bbf41795edb0b464c0a9067de641ca53d2301ccee2eee3c196c8ae9650e6",
    "greedy/evaluate/2":
        "334cd35d0f3512c4ca959dd6893311ce5627945a46758becc4de29a2f509ecfd",
}

LP_GOLDEN = {
    "oppd/0":
        "fbeb085d944f516d2d521cc74c545eaf4e091b74eeecbbf660f353f1695d4670",
    "oppd/1":
        "c029b779c1e47681c77e8bb8df8350e696e7eb968688b6b105e0ae7dd9d8f765",
    "oppd/2":
        "f17426a70f95ecd4325882cb79db9bcefdb9d53b3187a5078ef9fcfd385ee51c",
}


LP40_GOLDEN = {
    "mmog/0":
        "edcb3b9cd22cd85d74aa6c042a359e6b58e11cf1908611bbca49a73908d82591",
    "mmog/1":
        "c2a36c76924fe753601f2869551148aec3fd1d5ff5a31c0a7444af1676dae2c7",
    "mmog/2":
        "8e5fded39e39a46fb7622bb78879e911ebd0a65c4f83d1465cb674e195117cd4",
    "oppd/0":
        "c99f02c49adf7c7685a4c31e3000328eb9e3c78e28a6e4ae929567361985265b",
    "oppd/1":
        "3966287297a461fc875f3117915116200aff2c9d1c9f3e7723861dbaeb2491c8",
    "oppd/2":
        "6efa37a8ad45581b7124deb8c8ff1c40eaf0bc60151ba1700beaf06a79342d85",
    "n3/empty-objective":
        "4db8e1d74ca2d579a4587f19ae733d89911639f1602f87800c061ed50ab8377e",
}

LP101_GOLDEN = {
    "mmog/0":
        "8018a7bdca269fdd34bf49e1ae10e5202a33ad30ba01e61ad99a50660fc32436",
    "oppd/0":
        "e81523cde14f281e7454b60b8ed9cb969e395ed62791bd730b5b40b161a2b11d",
}


ORACLE_GOLDEN = {
    "8/2/3/2":
        "b20e86fa06864af5ee1fdc63092ec526fc8ab1e68feddb0c4da532e22d8db773",
    "10/2/3/2":
        "632784afbf9272bfea64dac4b387046f8e75da0fc74aff2947f475c827ba4cdb",
    "10/3/4/2":
        "49da3e8dd14f21b4b413443119598a4061370166c778d0f75a33c0d1c648d11a",
    "9/2/4/3":
        "a053e2f41f50db34999ea2a6eb6bfacfd8cf4b38cdae83eb9a2a038f8c02f16e",
    "10/2/5/1":
        "af0d66d76fb65efefb866df6544bae2b3d3ab159c202878592dcd33ba7a39548",
    "10/3/5/2":
        "4dc51cf4b15ff412396288e512d21460d048613097e2444bc394e8672dc1fa80",
    "7/2/3/4":
        "98ce74b0fcd9524c6735e897fed372af0b8588258df80e5dfc65d48e560f2281",
    "10/4/6/2":
        "75a875fd0e8b046f44cafe1e26fc8a738f2d191e26be2134e91e00ea6ecf34d8",
    "6/2/3/3":
        "99176e72d55627f38574b79227511aacbc1e8ca8b49152fe19be8ef1541cae29",
    "10/2/8/2":
        "107f5ba74fcb9c295681dc5ea2ef0a949d9e965ff666ffebaca080e97e976720",
}


WORKLOAD_GOLDEN = {
    "mmog/0":
        "f4d8fb15362a9526b368092dd8ec2b1a0f6021118865f9ac0c8210e038014963",
    "mmog/1":
        "c2b5c2d035493b9c9adfec2efdb059102abc003dcef6e0d27b394727eba8e01b",
    "mmog/2":
        "b145b2de781467e45b26e86213d088fe8958bc223e059c8b571d43e546362f64",
    "mmog/3":
        "fa087251b5c877e847f51a020ab4ec438b731d7c1409476556effbd294f7da65",
    "mmog/4":
        "102a35344c032a38714261e0874f7fcaee3fd245cd06af82deaedf3cb57ac1bf",
    "mmog/5":
        "3324e2b83c5c97f16c6e392c8e3db4e7d57108d6d9c827d8e2717f3ed68d500b",
    "mmog/6":
        "b34bfde5966d04d3b1a9becb40014f3f6fccac957aa9d82015c0d78803cdc249",
    "mmog/7":
        "97f4e5823a3c326dba28f5d23e1b99c0e758c84570031ac938ac26d73a77d7ad",
    "mmog/8":
        "10d64549126f2dd5b09c6ca913d6704b0fbd84d369c8a9fb9317fd20ad810b35",
    "mmog/9":
        "c9784e48c9ab12b9c591618da8c3bc107968962d43cbd8812a87c326178f7218",
    "mmog/10":
        "8346f49b0a55fc444f6be4a5ac2d9a50862b57676761b1fd1362b8b9446d522f",
    "mmog/11":
        "03c61b73a07cd0168ea527d8016ed9c6de0940f5d3f35959e6f0bb3688031c71",
    "mmog/12":
        "57b5591434ce7c292db5a3c0e2c72cc7ef2de662ab00cc18ae5e1718b9fea7de",
    "mmog/13":
        "9667249450e9bbd27ee1e5b57c442400d4af2396bec8b3e3e50354e5aa12285a",
    "mmog/14":
        "e415d010492989e0126566150b5cbf99c6fb5dacad5ca9a8e63941672381ca20",
    "mmog/15":
        "a1ec79fcbfa9214ee6ff365159e473e5603531eec9a9ae5083867b764c51e628",
    "mmog/16":
        "9648b0a8304f97d1008ea53f197b92fda19ad2258dd4281be3214e7bf52c9d03",
    "mmog/17":
        "2394d6d1d3b8d648d0fba27e518484d212e88af90af17699c6db3194fd548d4c",
    "mmog/18":
        "8357dabe600ee4e5b40a785d7f55762256a8b64a89d6b5e1ab803610d3a0b725",
    "mmog/19":
        "1861ad1ec74fa828ab5732774bb87bcf3692c0e9468184f49f0c14179d39197c",
    "oppd/0":
        "a6c6f45bf75206b150eea0000b60b8b3313a1210c76a3e809b476521c2de0825",
    "oppd/1":
        "a2b1f98b54c184ed37a3b034a44ace098749e67d0f7918cc63c1516ff4dada10",
    "oppd/2":
        "93b3fd860dabe65442a20daae9ad768924ed907d44ecd3ba5ff71d4bb27ffa09",
    "oppd/3":
        "f1d42cbdcc63eeb8e342abe9d472e7fd024d3efec138bf8cd4453fc0393e2bde",
    "oppd/4":
        "a87570355cd6ca48fccf7d45ace30bfe7c9c83d7c1849d2ef9baf43dcd6d6a46",
    "oppd/5":
        "f0c4ea56bae2fd57e3d2589b2ee837e75ba7dd1e9c84e8769d65d80614fd81b5",
    "oppd/6":
        "2009777235cd1c2eca6c093181b4893df012226c36de4df688673cb7e73a6a2a",
    "oppd/7":
        "086a118c73570cc59be372e139e26533ffa10a95b6740df65c57791f3592e487",
    "oppd/8":
        "5e6917f16b173cca93c76af3882deabe4c07c21b7bef0653c1e66aa278c6230d",
    "oppd/9":
        "3aec80e63ec997b4e3665e11016b2da6d8e4877bb3657e1b5f906dfb82788fc7",
    "oppd/10":
        "af99ac6564769af20ed098ab5aa64dfc56928605a60c9f4f0aa5b942c6fe77a0",
    "oppd/11":
        "8f488bef945df5106b97364e95b25abe222c443fec955679c1e2aed27c5bf9f2",
    "oppd/12":
        "c3a97180216814f2d5bd1276129cf50dea308d613d6e23cae448bba3811077b0",
    "oppd/13":
        "290ea63824a2226fbe2721936792939ddf6f99d5ef53bce3b5907b6713023f23",
    "oppd/14":
        "34f763f7c37446cbc3433fcbe659c62a916dc89bf23e0b6378826bea571ddd2c",
    "oppd/15":
        "6ddcc6d90fbefea199bb05449f967d5f2fca9b9b240427f26a34e715a1ac3ecf",
    "oppd/16":
        "d87cac7cb7f83d82917998ced56bcd9b3020be590cab5943573ce1108b551a09",
    "oppd/17":
        "22af034c777683ca830911823b31446a4370dad6e34d818697cd56fe991d715e",
    "oppd/18":
        "cc914b0e29c3dff4295ee2897796006766d9a384ff1d3e2e860d50e8f461aafd",
    "oppd/19":
        "a6196702ec5323d751dab21ac86fe876688c71228b59202f5add565b4b242ffc",
    "mmog-long/0":
        "377e100bda04ef6a6272762a9de9057dd6c76bd18c895007c55751955e3f99e1",
    "mmog-long/1":
        "94610d4d41e6fedb26231d7099b69adf5c3fe37c54a6e01adf0b5faef8ee5cd4",
    "mmog-long/2":
        "ae4b2c128c31c4b1fe3bdc28f37eb8670f49c947624a04f9df224246596bf7a1",
}


def test_compare_csvs_match_golden():
    assert compare_digests() == COMPARE_GOLDEN


def test_long_horizon_schedules_and_reports_match_golden():
    assert long_horizon_digests() == LONG_HORIZON_GOLDEN


def test_exported_models_match_golden():
    assert lp_digests() == LP_GOLDEN


def test_exported_models_at_benchmark_size_match_golden():
    assert lp40_digests() == LP40_GOLDEN


def test_exported_models_past_three_digit_names_match_golden():
    assert lp101_digests() == LP101_GOLDEN


def test_oracle_assignments_match_golden():
    assert oracle_digests() == ORACLE_GOLDEN


def test_workload_files_match_golden():
    assert workload_digests() == WORKLOAD_GOLDEN
