"""The shipped configs: each loads and names a subcommand, and each scan runs."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from ipsd import cli, harness
from ipsd.cli import _COMMANDS, main
from ipsd.diffusion import ENSEMBLE_BATCH
from ipsd.harness import load_config_file
from ipsd.spin import SPIN_CHUNK
from ipsd.walkers import WALKER_BATCH

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# tiny workloads for each scan; the swept value lists stay as shipped
SCAN_OVERRIDES = {
    "coexist-scan": ["run.t_het=0.05", "run.t_surv=0.5", "run.reps_het=4", "run.reps_surv=2",
                     "run.cap=50", "lattice.L=4", "model.dt=0.01"],
    "extinct-scan": ["run.grid=0.1,0.2", "run.reps_fwd=4", "run.reps_dual=4", "lattice.L=4",
                     "model.dt=0.01"],
    "meanfield-scan": ["run.T=0.5", "run.dt=0.05"],
    "parity-scan": ["run.reps=4", "run.T=0.5"],
}


def test_every_config_loads_and_names_a_subcommand():
    paths = sorted(CONFIGS.glob("*.ini"))
    assert paths
    for path in paths:
        options = load_config_file(path)
        target = options["sweep"]["over"] if "sweep" in options else path.stem
        assert target in _COMMANDS, path.name


def test_scan_configs_are_exactly_the_listed_ones():
    assert sorted(p.stem for p in CONFIGS.glob("*-scan.ini")) == sorted(SCAN_OVERRIDES)


@pytest.mark.parametrize("name", sorted(SCAN_OVERRIDES))
def test_scan_runs_one_sub_report_per_product_point(tmp_path, name):
    path = CONFIGS / f"{name}.ini"
    sets = [arg for item in SCAN_OVERRIDES[name] for arg in ("--set", item)]
    main(["sweep", "--config", str(path), "--seed", "1", "--reps", "4",
          "--out", str(tmp_path)] + sets)
    sweep = load_config_file(path)["sweep"]
    names = [tok.strip() for tok in sweep["vary"].split(",")]
    lists = [[tok.strip() for tok in chunk.split(",") if tok.strip()]
             for chunk in sweep["values"].split(";")]
    points = list(itertools.product(*lists))
    report = json.loads((tmp_path / "sweep.json").read_text())
    assert [entry["value"] for entry in report["reports"]] == [";".join(pt) for pt in points]
    for point in points:
        subdir = ",".join(f"{n.replace('.', '_')}={v}" for n, v in zip(names, point))
        sub = json.loads((tmp_path / subdir / f"{sweep['over']}.json").read_text())
        for n, v in zip(names, point):
            section, key = n.split(".")
            assert sub["config"]["options"][section][key] == v


# Tiny workloads for every config, sized so that each ensemble spans two
# chunks at least (one more replicate than a chunk); otherwise no pool starts.
EM, WALK, SPIN = ENSEMBLE_BATCH + 1, WALKER_BATCH + 1, SPIN_CHUNK + 1
_COEXIST = [f"run.reps_het={EM}", f"run.reps_surv={WALK}", "run.t_het=0.02", "run.t_surv=0.05",
            "run.cap=40", "lattice.L=4", "model.dt=0.01"]
_EXTINCT = [f"run.reps_fwd={EM}", f"run.reps_dual={WALK}", "run.grid=0.01,0.02", "lattice.L=4",
            "model.dt=0.01"]
_PARITY = [f"run.reps={SPIN}", "run.T=0.3"]
_MEANFIELD = ["run.T=0.5", "run.dt=0.05"]
THREAD_OVERRIDES = {
    "coexist-probe": _COEXIST,
    "coexist-scan": _COEXIST,
    "diffusion-run": [f"run.reps={EM}", "run.T=0.02", "run.grid=0.01,0.02", "lattice.L=4",
                      "model.dt=0.01"],
    "dual-run": [f"run.reps={SPIN}", "run.T=0.5", "run.grid=0.25,0.5"],
    "exact-check": ["run.kernels=complete:3", "run.alphas=0.3", "run.tgrid=0.1"],
    "extinct-probe": _EXTINCT,
    "extinct-scan": _EXTINCT,
    "meanfield": _MEANFIELD + ["run.reps=3", "run.compare_n=10", "run.compare_t=0.5"],
    "meanfield-scan": _MEANFIELD,
    "moment-check": [f"run.reps={EM}", "run.grid=0.01,0.02", "lattice.L=4", "model.dt=0.01"],
    "parity-check": _PARITY,
    "parity-scan": _PARITY,
    "spin-run": [f"run.reps={SPIN}", "run.T=0.3", "run.grid=0,0.3", "kernel.L=3"],
    "sweep": _MEANFIELD,
    "walker-run": [f"run.reps={WALK}", "run.T=0.3", "run.grid=0.1,0.3", "run.cap=40"],
}
# configs whose commands run no replicate ensemble: exact-check draws nothing,
# and meanfield's comparator keeps its one pinned stream
NO_ENSEMBLE = {"exact-check", "meanfield", "meanfield-scan", "sweep"}


def test_thread_overrides_cover_every_config():
    assert sorted(THREAD_OVERRIDES) == sorted(p.stem for p in CONFIGS.glob("*.ini"))


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(THREAD_OVERRIDES))
def test_config_output_is_byte_identical_at_one_and_two_threads(tmp_path, monkeypatch, name):
    calls = []
    pooled = harness.parallel_map

    def spy(fn, items, threads):
        items = list(items)
        calls.append((len(items), threads))
        return pooled(fn, items, threads)

    monkeypatch.setattr(harness, "parallel_map", spy)
    path = CONFIGS / f"{name}.ini"
    command = "sweep" if "sweep" in load_config_file(path) else name
    sets = [arg for item in THREAD_OVERRIDES[name] for arg in ("--set", item)]
    trees = []
    for threads in ("1", "2"):
        calls.clear()
        out = tmp_path / threads
        main([command, "--config", str(path), "--seed", "101", "--threads", threads,
              "--out", str(out)] + sets)
        trees.append(_tree(out))
    assert trees[0] == trees[1] and trees[0]
    # at --threads 2 every ensemble got the flag and spans two chunks or more
    assert bool(calls) == (name not in NO_ENSEMBLE)
    assert all(threads == 2 and chunks >= 2 for chunks, threads in calls)


# SHA-256 of every --out file of the replay-driven configs at --seed 13 and
# 300 reps (two chunks): a replay change that moves one bit of output fails here
REPLAY_DIGESTS = {
    "dual-run": {
        "dual-run.json": "1da46e26c1c24e4258a9b69d02a57942d0563b9b984613a7f69bc6e356c41b33",
        "dual_sizes.csv": "5ee3b7b865189c74423068f51e1cd3d1be6aa83a666a268c311ff4882ea740a9",
        "dual_survival.csv": "9554442646c6da99c1721f93e105f7601d9923176f35bf4484ca865b04251816"},
    "parity-check": {
        "parity-check.json": "a2cbaa0d61c91f77fde707e3d17fafdb779f6c94ba2f739b45c87bb4da32ce5f",
        "parity_mc.csv": "b3ba9d68cf4c0134c624b27f933bd84142db34c2e0963aeef6419ac7919daf74",
        "parity_pathwise.csv": "6c60dbd631bd2ad41dec5fc5c0edd2bc499e8d7f0448f8f130a888fffde8e200"},
}


@pytest.mark.parametrize("name", sorted(REPLAY_DIGESTS))
def test_replay_driven_config_outputs_match_pinned_digests(tmp_path, name):
    main([name, "--config", str(CONFIGS / f"{name}.ini"), "--seed", "13", "--reps", "300",
          "--out", str(tmp_path)])
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == REPLAY_DIGESTS[name]


# SHA-256 of every --out file of meanfield at --seed 13, 40 reps and run.T=5, with
# the shipped comparator on: Python-float RK4 and lockstep count-chain draws, no BLAS
MEANFIELD_DIGESTS = {
    "meanfield.json": "c66943c6fd61f79ccb48e1ce4b50e27f3fbb444e05736b3b61007099451620a9",
    "meanfield_path.csv": "f698406c4bb3e739a7b134f057e5dd5ee108ca2419ed601225af12c330e4c3d3",
}


def test_meanfield_config_output_matches_pinned_digests(tmp_path):
    main(["meanfield", "--config", str(CONFIGS / "meanfield.ini"), "--seed", "13", "--reps", "40",
          "--set", "run.T=5", "--out", str(tmp_path)])
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == MEANFIELD_DIGESTS


# SHA-256 of every --out file of the Euler-Maruyama-driven configs at --seed 101
# and their small-run overrides above (two chunks of each ensemble): a change
# to the EM kernel that moves one bit of output fails here.  The noise signs are
# read little-endian and nothing runs on BLAS, so the digests do not depend on
# the host.
EM_DIGESTS = {
    "coexist-probe": {
        "coexist-probe.json": "619df9b68b42a15b7b47dc9f5716467e79b7ae06a0f8da3bedd370c41a4fc0eb"},
    "diffusion-run": {
        "diffusion-run.json": "cef09705e2b361a974280c352572705a59402d0bb54a61ab02bbe229265522c9",
        "diffusion_summary.csv": "639458246398f45c74e251eb748fa99b7c1bafbe99e704528cb30d51b5089ca4"},
    "extinct-probe": {
        "extinct-probe.json": "5f025d35c2e3f42fe884d208dcba9062b5caf2d218ac006ad151c57f90fee9fb"},
    "moment-check": {
        "moment-check.json": "efa0f885c2c74d6cba4b483eec03aa0fcbdc48a54f457e067b83c4136dfdb147"},
}


def _small_run_digests(out: Path, name: str) -> dict:
    """SHA-256 of every --out file of config ``name`` at --seed 101 and its small-run overrides."""
    sets = [arg for item in THREAD_OVERRIDES[name] for arg in ("--set", item)]
    main([name, "--config", str(CONFIGS / f"{name}.ini"), "--seed", "101", "--out", str(out)]
         + sets)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


@pytest.mark.parametrize("name", sorted(EM_DIGESTS))
def test_em_driven_config_outputs_match_pinned_digests(tmp_path, name):
    assert _small_run_digests(tmp_path, name) == EM_DIGESTS[name]


# The same for the Gillespie-driven configs: each spans two chunks, and
# walker-run's second chunk holds one replicate, so it runs the scalar loop.
# Neither uses BLAS, so the digests do not depend on the host.
GILLESPIE_DIGESTS = {
    "spin-run": {
        "spin-run.json": "b96ff23d1e0bf2bc578e585ebced1fba229f8d7ea427aa9ba066fc32a4084a1f",
        "spin_density.csv": "26d55b76d1340bffd08e92ee5416b0d44fe2bc8861a9abb38d9e8e423233897d"},
    "walker-run": {
        "walker-run.json": "7aca50ec79d392157427111bcc58086b79aefbff800e8306c0163971913a1bbf",
        "walker_sizes.csv": "63993152516d2dac714cc4c9307b45aba5f48b2a3b4fb6f39376a40d35a34c63"},
}


@pytest.mark.parametrize("name", sorted(GILLESPIE_DIGESTS))
def test_gillespie_driven_config_outputs_match_pinned_digests(tmp_path, name):
    assert _small_run_digests(tmp_path, name) == GILLESPIE_DIGESTS[name]


# SHA-256 of every --out file of the benchmark's lattice-moments configs and its
# spin-torus spin, dual and parity configs, at --seed 101 and their own reps: the
# walker, Euler-Maruyama and spin traffic the benchmark times, pinned bit for bit.
# exact-check runs on BLAS, so its bits may depend on the host.  The configs are
# read, never edited.
BENCHMARK_CONFIGS = CONFIGS.parent / "benchmark" / "configs"
BENCHMARK_DIGESTS = {
    "lattice-moments/coexist-probe": {
        "coexist-probe.json": "6532625be1e2dc79afd75b2594602d96c7e272b4e646302e6def23faba8e52f2"},
    "lattice-moments/diffusion-run": {
        "diffusion-run.json": "c57e5c2bc46c96903f0bc08c693cbeb874df9416fc604b1da760f5323eccbcb9",
        "diffusion_summary.csv": "8ff6c783bc6cfaa5508f9c8626c0596c21aa963874692009e1badff8f80faca1"},
    "lattice-moments/extinct-probe": {
        "extinct-probe.json": "8d99184d6fe29f2d1f2e778b52277f7553223961fdaabef8c72056c683c373eb"},
    "lattice-moments/moment-check": {
        "moment-check.json": "f575cd356dd5be3c847c64029a53fc01148772795fd2b2c747ca75a161307eea"},
    "lattice-moments/walker-run": {
        "walker-run.json": "97c3d70d8164a873c94774e7fe5b9ff5cce70f791535ab9bb5b9ac496317e693",
        "walker_sizes.csv": "651e3461539e86a8a5dcec61d4df6a18394c5ab558d4789699c1cd5a0fac0c6c"},
    "spin-torus/dual-run": {
        "dual-run.json": "1296968b0395f36992463db172f436b9e75fc3798c0fee9b2124b10d29c020d7",
        "dual_sizes.csv": "fa9bad21869ef28e48068d3055958a3035fc7ea8af94f77b0cc241d970c92bc3",
        "dual_survival.csv": "39271a109f2c01a8443e2df07659171a5fd6c72444dbe50ac23762cd39b15fb6"},
    "spin-torus/parity-check": {
        "parity-check.json": "11ce41b48715d4d239949aacc74a0e7df6f76d6ed108079dd0fa6c968df64a68",
        "parity_mc.csv": "40520fe93ec90d78baf16dd0fd104734bae7049bb0f67bc9056f1f13cae47354",
        "parity_pathwise.csv": "8d0a905a2858dfaf6ff38e2e0a5a2a5d5c43ddbb1c71c0cd34daf22f977cc8d8"},
    "spin-torus/spin-run": {
        "spin-run.json": "2c813b75b996dfae3fb68f01fada1ddf2f79d2200f61d27a81ca3117a3bfd908",
        "spin_density.csv": "544b2f8a63c25c5b85ddcddc5e99a7427a2d7498a9503c7b8c08158ae03d2060"},
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_DIGESTS))
def test_benchmark_config_outputs_match_pinned_digests(tmp_path, name):
    main([Path(name).name, "--config", str(BENCHMARK_CONFIGS / f"{name}.ini"), "--seed", "101",
          "--out", str(tmp_path)])
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == BENCHMARK_DIGESTS[name]


# Every command reads all of its keys, through harness.read_option or
# harness.read_list, before its first engine runs; so with the engines stopped
# the reads of a run are complete, and a config key outside them is stale.
_ENGINES = ("evug_statistic", "parity_duality_mc", "build_generator_np", "integrate_ode",
            "ensemble_observable", "walker_ensemble", "moment_duality_mc", "coexistence_probe",
            "extinction_probe", "replicate_map")
# the common fields, which cli._merge_config reads for every command
_COMMON_KEYS = {("run", "seed"), ("run", "reps"), ("run", "threads"), ("run", "out")}
NON_SWEEP_CONFIGS = [path for path in sorted(CONFIGS.glob("*.ini"))
                     + sorted(BENCHMARK_CONFIGS.glob("*/*.ini"))
                     if "sweep" not in load_config_file(path)]


class _EngineReached(Exception):
    pass


def _unread_keys(monkeypatch, tmp_path, path: Path) -> set:
    """The (section, key) pairs of config ``path`` that its command does not read."""
    reads = set()
    for name in ("read_option", "read_list"):
        def spy(options, section, key, *args, read=getattr(harness, name)):
            reads.add((section, key))
            return read(options, section, key, *args)

        monkeypatch.setattr(harness, name, spy)

    def reached(*args, **kwargs):
        raise _EngineReached

    for name in _ENGINES:
        monkeypatch.setattr(cli, name, reached)
    with pytest.raises(_EngineReached):
        main([path.stem, "--config", str(path), "--seed", "1", "--out", str(tmp_path)])
    keys = {(section, key) for section, kv in load_config_file(path).items() for key in kv}
    return keys - reads - _COMMON_KEYS


def test_the_stale_key_guard_covers_every_non_sweep_config():
    assert len(NON_SWEEP_CONFIGS) == 21


@pytest.mark.parametrize("path", NON_SWEEP_CONFIGS,
                         ids=[str(p.relative_to(CONFIGS.parent)) for p in NON_SWEEP_CONFIGS])
def test_every_config_key_is_one_its_command_reads(monkeypatch, tmp_path, path):
    assert _unread_keys(monkeypatch, tmp_path, path) == set()


def test_the_stale_key_guard_finds_a_key_no_command_reads(monkeypatch, tmp_path):
    path = tmp_path / "dual-run.ini"
    path.write_text((CONFIGS / "dual-run.ini").read_text() + "\n[model]\nm = nn:1.0\n")
    assert _unread_keys(monkeypatch, tmp_path / "out", path) == {("model", "m")}
