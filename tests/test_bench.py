"""Rate fitting, CSV emission, config handling, and the CLI surface."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_multistep import (
    ConfigError,
    NonFiniteIntegrandError,
    OutOfDomainError,
    PicardDivergenceError,
    RunSpec,
    SolverConfig,
    SolverFailure,
    fit_rate,
    run,
)
from fbsde_multistep.bench import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    SOLVER_OVERRIDES,
    build_parser,
    main,
    parse_config_file,
    render_csv,
    spec_from_options,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# (flag without "--", its text value, SolverConfig field, parsed value)
OVERRIDE_CASES = [
    ("gh-points", "6", "L", 6),
    ("interp-degree", "5", "r", 5),
    ("grid-h", "0.05", "h", 0.05),
    ("tol", "1e-10", "eps0", 1e-10),
    ("terminal", "bootstrap", "terminal_mode", "bootstrap"),
]


def test_fit_rate_exact_power_law():
    Ns = [16, 32, 64, 128]
    errors = [(N, 3.0 * N**-2.0) for N in Ns]
    assert fit_rate(errors) == pytest.approx(2.0, abs=1e-10)


def test_fit_rate_flat_line():
    assert fit_rate([(N, 0.5) for N in (16, 32, 64)]) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_table3_k1_column():
    errors = list(zip([16, 32, 64, 128, 256],
                      [3.576e-3, 1.789e-3, 8.946e-4, 4.474e-4, 2.238e-4]))
    assert fit_rate(errors) == pytest.approx(1.000, abs=0.01)


def test_fit_rate_needs_three_positive_points():
    with pytest.raises(ValueError):
        fit_rate([(16, 1.0), (32, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(16, 1.0), (32, 0.5), (64, 0.0)])


def test_runspec_validation():
    with pytest.raises(ConfigError):
        RunSpec(problem="ex51", ks=(), Ns=(16,))
    with pytest.raises(ConfigError):
        RunSpec(problem="ex51", ks=(3,), Ns=(3,))
    with pytest.raises(ConfigError):
        RunSpec(problem="ex51", ks=(1,), Ns=(16,), fmt="html")


def test_two_point_run_has_no_rates(tmp_path):
    out = tmp_path / "table.csv"
    spec = RunSpec(problem="ex51", ks=(1,), Ns=(8, 16), out=str(out))
    report = run(spec)
    assert len(report.cells) == 2
    assert report.rates == {}
    assert report.rate_omissions
    assert out.exists()


def test_csv_round_trip_and_ordering(tmp_path):
    out = tmp_path / "table.csv"
    spec = RunSpec(problem="ex51", ks=(2, 1), Ns=(16, 8, 12), out=str(out))
    report = run(spec)
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = list(csv.reader(lines[1:]))
    data_rows = [row for row in rows if row[2] != "CR"]
    # rows sorted by (k, N) ascending
    seen = [(int(row[1]), int(row[2])) for row in data_rows]
    assert seen == sorted(seen)
    # every numeric cell round-trips exactly through the 17-digit format
    by_cell = {(cell.k, cell.N): cell for cell in report.cells}
    for row in data_rows:
        cell = by_cell[(int(row[1]), int(row[2]))]
        assert float(row[4]) == cell.err_y[0]
        assert float(row[5]) == cell.err_z[0]
        assert float(row[6]) == cell.runtime
        assert int(row[7]) == cell.picard_max
    cr_rows = [row for row in rows if row[2] == "CR"]
    for row in cr_rows:
        key = (int(row[1]), int(row[3]) - 1)
        assert float(row[4]) == report.rates[key][0]
        assert row[6] == "" and row[7] == ""


def test_rate_matches_fit_on_emitted_errors(tmp_path):
    spec = RunSpec(problem="ex51", ks=(1,), Ns=(8, 12, 16, 24))
    report = run(spec)
    cells = {cell.N: cell for cell in report.cells}
    manual = fit_rate([(N, cells[N].err_y[0]) for N in (8, 12, 16, 24)])
    assert report.rates[(1, 0)][0] == pytest.approx(manual, rel=1e-12)


def test_diverged_cell_marks_and_continues(tmp_path, monkeypatch):
    # Force divergence via an impossible iteration budget on a coupled run.
    from fbsde_multistep import bench

    def failing_cell(problem, k, N, spec):
        if N == 12:
            from fbsde_multistep.bench import CellResult
            return CellResult(k=k, N=N, err_y=None, err_z=None, runtime=0.1,
                              picard_max=100, diverged=True)
        return original(problem, k, N, spec)

    original = bench._run_cell
    monkeypatch.setattr(bench, "_run_cell", failing_cell)
    out = tmp_path / "table.csv"
    spec = RunSpec(problem="ex51", ks=(1,), Ns=(8, 12, 16), out=str(out))
    report = bench.run(spec)
    assert report.any_diverged
    flat = out.read_text()
    assert "DIVERGED" in flat
    clean = [cell for cell in report.cells if not cell.diverged]
    assert len(clean) == 2


@pytest.mark.parametrize("failure", [
    PicardDivergenceError("implicit Y iteration stuck at level 3, point [0.5]"),
    NonFiniteIntegrandError("integrand returned a non-finite value at node [0.5]"),
    OutOfDomainError("query point outside the window"),
])
def test_solver_failure_marks_its_cell_and_keeps_the_other_rows(tmp_path, monkeypatch,
                                                                caplog, failure):
    from fbsde_multistep import bench

    def csv_rows(path):  # every row but the runtime column
        return [row[:6] + row[7:] for row in csv.reader(path.open())]

    spec = dict(problem="ex51", ks=(1,), Ns=(8, 12, 16, 24))
    clean = tmp_path / "clean.csv"
    bench.run(RunSpec(out=str(clean), **spec))
    solve = bench.solve

    def failing_solve(problem, config):
        if config.N == 12:
            raise failure
        return solve(problem, config)

    monkeypatch.setattr(bench, "solve", failing_solve)
    out = tmp_path / "table.csv"
    with caplog.at_level("WARNING", logger="fbsde_multistep.bench"):
        report = bench.run(RunSpec(out=str(out), **spec))
    assert [cell.diverged for cell in report.cells] == [False, True, False, False]
    assert [rec.getMessage() for rec in caplog.records] == [f"ex51 k=1 N=12 diverged: {failure}"]
    rows, expected = csv_rows(out), csv_rows(clean)
    assert rows[2][4:6] == ["DIVERGED", "DIVERGED"]
    # the other cells' rows are those of a clean run; the rate is refitted on them
    assert [rows[i] for i in (0, 1, 3, 4)] == [expected[i] for i in (0, 1, 3, 4)]
    assert rows[5][:4] == ["ex51", "1", "CR", "1"]


def test_solver_failures_share_one_base_and_keep_their_own():
    assert issubclass(PicardDivergenceError, SolverFailure)
    assert issubclass(PicardDivergenceError, RuntimeError)
    for error in (NonFiniteIntegrandError, OutOfDomainError):
        assert issubclass(error, SolverFailure) and issubclass(error, ValueError)
    assert not issubclass(ConfigError, SolverFailure)

@pytest.mark.parametrize("error", [ConfigError("bad config"), RuntimeError("window sizing bug")])
def test_errors_other_than_solver_failures_propagate(monkeypatch, error):
    from fbsde_multistep import bench

    def failing_solve(problem, config):
        raise error

    monkeypatch.setattr(bench, "solve", failing_solve)
    with pytest.raises(type(error)):
        bench.run(RunSpec(problem="ex51", ks=(1,), Ns=(8, 12, 16)))


def test_markdown_format(tmp_path):
    out = tmp_path / "table.md"
    spec = RunSpec(problem="ex51", ks=(1,), Ns=(8, 16), out=str(out), fmt="markdown")
    run(spec)
    text = out.read_text()
    assert text.startswith("## ex51")
    assert "| k | N |" in text


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark configuration\n"
        "problem = ex51\n"
        "k = 1,2\n"
        "N = 8, 16\n"
        "gh-points = 6   # sparse quadrature\n"
    )
    options = parse_config_file(str(cfg))
    assert options["problem"] == "ex51"
    assert options["gh_points"] == "6"
    spec = spec_from_options(options)
    assert spec.ks == (1, 2)
    assert spec.Ns == (8, 16)
    assert spec.L == 6


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem ex51\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))
    cfg.write_text("problem = ex51\nk = 1, two\nN = 8\n")
    with pytest.raises(ConfigError, match="list of integers"):
        spec_from_options(parse_config_file(str(cfg)))


def test_cli_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = ex51\nk = 1\nN = 8,16\ngh-points = 6\n")
    out = tmp_path / "o.csv"
    code = main([
        "--config", str(cfg), "--N", "8,12,16", "--out", str(out), "--format", "csv",
    ])
    assert code == EXIT_OK
    rows = out.read_text().strip().splitlines()
    data = [row for row in rows[1:] if ",CR," not in row]
    assert len(data) == 3  # CLI N list won over the config file


def test_cli_unknown_problem_exits_one(capsys):
    assert main(["--problem", "bogus", "--k", "1", "--N", "8,16"]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_cli_missing_required_exits_one(capsys):
    assert main(["--problem", "ex51"]) == EXIT_CONFIG


def test_cli_bad_flag_exits_one():
    for flag in ("--no-such-flag", "--parallel-cells"):
        proc = subprocess.run(
            [sys.executable, "-m", "fbsde_multistep.bench", flag],
            capture_output=True,
        )
        assert proc.returncode == EXIT_CONFIG, flag
        assert flag in proc.stderr.decode(), flag


def test_import_loads_no_process_pool():
    code = (
        "import sys, fbsde_multistep; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_module_run_prints_no_runpy_warning():
    # the package loads the study driver only on first use, so running it
    # as __main__ does not find it imported already
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "fbsde_multistep.bench",
         "--problem", "ex51", "--k", "1", "--N", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "| 1 | 4 |" in proc.stdout


def test_package_serves_the_study_driver_on_first_use():
    code = (
        "import sys, fbsde_multistep as pkg; "
        "print('fbsde_multistep.bench' in sys.modules); "
        "from fbsde_multistep import bench; "
        "print(all(getattr(pkg, name) is getattr(bench, name) "
        "for name in ('ConvergenceReport', 'RunSpec', 'fit_rate', 'run')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]


def test_cli_diverged_exit_code(monkeypatch):
    from fbsde_multistep import bench

    def fake_run(spec):
        from fbsde_multistep.bench import CellResult, ConvergenceReport
        report = ConvergenceReport(problem=spec.problem, components=1)
        report.cells = [CellResult(k=1, N=8, err_y=None, err_z=None,
                                   runtime=0.0, picard_max=1, diverged=True)]
        return report

    monkeypatch.setattr(bench, "run", fake_run)
    assert bench.main(["--problem", "ex51", "--k", "1", "--N", "8"]) == EXIT_DIVERGED


def test_atomic_write_leaves_no_temp_files(tmp_path, monkeypatch):
    from fbsde_multistep import bench

    out = tmp_path / "t.csv"
    run(RunSpec(problem="ex51", ks=(1,), Ns=(8, 16), out=str(out)))
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []
    # a write that fails removes its temp file and leaves the old table
    text = out.read_text()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(bench.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        bench._atomic_write(str(out), "new table\n")
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]
    assert out.read_text() == text


def test_nonpositive_errors_omit_the_rate(monkeypatch):
    from fbsde_multistep import bench
    from fbsde_multistep.bench import CellResult

    def exact_cell(problem, k, N, spec):
        zero = np.zeros(problem.p)
        return CellResult(k=k, N=N, err_y=zero, err_z=zero, runtime=0.0, picard_max=1)

    monkeypatch.setattr(bench, "_run_cell", exact_cell)
    report = bench.run(RunSpec(problem="ex51", ks=(1,), Ns=(8, 12, 16)))
    assert report.rates == {}
    assert report.rate_omissions == ["k=1 component 1: errors unavailable or nonpositive"]


def test_render_csv_header_is_exact():
    assert CSV_HEADER == "problem,k,N,component,err_y,err_z,runtime_s,picard_max"
    from fbsde_multistep.bench import ConvergenceReport
    report = ConvergenceReport(problem="ex51", components=1)
    assert render_csv(report).splitlines()[0] == CSV_HEADER


_FLOATS = st.floats(allow_nan=False)
_CELLS = st.lists(
    st.tuples(st.integers(1, 8), st.integers(2, 4096), st.booleans(),
              st.lists(_FLOATS, min_size=3, max_size=3), st.lists(_FLOATS, min_size=3, max_size=3),
              _FLOATS, st.integers(0, 100)),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(components=st.integers(1, 3), cells=_CELLS,
       rates=st.dictionaries(st.tuples(st.integers(1, 8), st.integers(0, 2)),
                             st.tuples(_FLOATS, _FLOATS), max_size=4))
def test_render_csv_round_trips_every_float_bitwise(components, cells, rates):
    # 17 significant digits re-parse to the very float rendered, in the data
    # rows, DIVERGED rows and the per-k CR rows alike
    from fbsde_multistep.bench import CellResult, ConvergenceReport

    report = ConvergenceReport(problem="ex51", components=components, rates={
        (k, comp % components): pair for (k, comp), pair in rates.items()})
    for k, N, diverged, err_y, err_z, runtime, picard_max in cells:
        errs = (None, None) if diverged else (np.array(err_y), np.array(err_z))
        report.cells.append(CellResult(k, N, *errs, runtime, picard_max, diverged))
    rows = list(csv.reader(render_csv(report).splitlines()))
    assert rows[0] == CSV_HEADER.split(",")

    def bits(text):
        return float(text).hex()

    data = rows[1 : 1 + components * len(report.cells)]
    expected = [(cell, comp) for cell in report.cells for comp in range(components)]
    assert len(data) == len(expected)
    for row, (cell, comp) in zip(data, expected):
        assert row[:4] == ["ex51", str(cell.k), str(cell.N), str(comp + 1)]
        if cell.diverged:
            assert row[4:6] == ["DIVERGED", "DIVERGED"]
        else:
            assert bits(row[4]) == float(cell.err_y[comp]).hex()
            assert bits(row[5]) == float(cell.err_z[comp]).hex()
        assert bits(row[6]) == float(cell.runtime).hex() and row[7] == str(cell.picard_max)
    summary = rows[1 + len(data):]
    assert len(summary) == len(report.rates)
    for row, ((k, comp), (cr_y, cr_z)) in zip(summary, sorted(report.rates.items())):
        assert row[:4] == ["ex51", str(k), "CR", str(comp + 1)] and row[6:] == ["", ""]
        assert (bits(row[4]), bits(row[5])) == (float(cr_y).hex(), float(cr_z).hex())


def test_cli_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("problem = ex51\nk = 1\nN = 8,16\ngh_point = 3\ntolerance = 1e-3\n"
                   "parallel_cells = true\n")
    assert main(["--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "gh_point" in err
    assert "tolerance" in err
    assert "parallel_cells" in err


def test_override_cases_cover_every_table_row():
    keys = [flag.replace("-", "_") for flag, *_ in OVERRIDE_CASES]
    assert keys == [row.key for row in SOLVER_OVERRIDES]
    assert [field for _, _, field, _ in OVERRIDE_CASES] == [row.field for row in SOLVER_OVERRIDES]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, text, field, value", OVERRIDE_CASES)
def test_every_override_reaches_the_solver(tmp_path, monkeypatch, source, flag, text, field, value):
    from fbsde_multistep import bench

    specs = []

    def no_solve(spec):
        specs.append(spec)
        return bench.ConvergenceReport(problem=spec.problem, components=1)

    monkeypatch.setattr(bench, "run", no_solve)
    argv = ["--problem", "ex51", "--k", "2", "--N", "8"]
    if source == "flag":
        argv += [f"--{flag}", text]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag.replace('-', '_')} = {text}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_OK
    config = specs[0].solver_config(2, 8)
    assert getattr(config, field) == value
    assert type(getattr(config, field)) is type(value)
    # the value lands on its own field and nowhere else
    default = getattr(SolverConfig(k=2, N=8), field)
    assert dataclasses.replace(config, **{field: default}) == SolverConfig(k=2, N=8)


def test_readme_flags_match_the_parser():
    sentence = re.search(r"Flags:(.*?)\.\s", README.read_text(), re.S).group(1)
    documented = {}
    for entry in re.findall(r"`([^`]+)`", sentence):
        option, _, values = entry.partition(" ")
        documented[option] = values or None
    actions = {
        option: action
        for action in build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert set(documented) == set(actions)
    for option, values in documented.items():
        choices = actions[option].choices
        assert values == ("|".join(choices) if choices else None), option
