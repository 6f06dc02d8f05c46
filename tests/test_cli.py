import argparse
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghz_selftest
from ghz_selftest import cli, optimize
from ghz_selftest.cli import (
    MAX_N,
    build_parser,
    canonical_json,
    load_strategy,
    main,
    parse_args,
    run,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from ghz_selftest.errors import InvalidInput
from ghz_selftest.fixtures import depolarized_partial_bell, ideal_strategy, partial_bell_strategy
from ghz_selftest.scenario import a_operators, success_metric
from ghz_selftest.selftest import DEFAULT_TOLERANCES, witness_bounds
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    random_antipodal_strategy,
    random_mixed_strategy,
    random_strategy,
)

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


# every subcommand's option strings: a flag is added or removed on purpose only
COMMAND_FLAGS = {
    "certify": {"--n", "--output", "-o", "--input", "--fixture", "--noise"},
    "spectrum": {"--n", "--output", "-o", "--s"},
    "sos": {"--seed", "--n", "--output", "-o", "--samples"},
    "seesaw": {"--seed", "--n", "--output", "-o", "--metric", "--restarts", "--max-iters",
               "--conv-tol", "--history-csv", "--save-strategy"},
    "counterexample": {"--output", "-o"},
    "robustness-grid": {"--n", "--output", "-o", "--step", "--r", "--mu", "--csv"},
    "fidelity-bound": {"--n", "--output", "-o", "--eps", "--r", "--mu"},
    "partial-bell": {"--output", "-o", "--input", "--noise"},
    "rac": {"--output", "-o", "--alpha"},
}


def _subparsers() -> dict:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParsing:
    def test_each_command_takes_exactly_its_flags(self):
        got = {name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                      for s in a.option_strings}
               for name, p in _subparsers().items()}
        assert got == COMMAND_FLAGS

    @pytest.mark.parametrize("argv", [
        ["certify", "--seed", "1"],
        ["spectrum", "--seed", "1"],
        ["robustness-grid", "--seed", "1"],
        ["fidelity-bound", "--eps", "0.1", "--seed", "1"],
        ["partial-bell", "--seed", "1"],
        ["rac", "--seed", "1"],
        ["counterexample", "--seed", "1"],
        ["counterexample", "--n", "2"],
        ["partial-bell", "--n", "2"],
        ["rac", "--n", "2"],
        ["robustness-grid", "--no-refine"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_synopsis_lists_each_command_flags(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        synopsis = {}
        for line in text.split("## CLI", 1)[1].split("```")[1].strip().splitlines():
            if line.startswith("ghz-selftest "):  # else a continuation line
                flags = synopsis.setdefault(line.split()[1], set())
            flags |= set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
        assert synopsis == COMMAND_FLAGS

    def test_commands_without_the_flags_report_the_defaults(self):
        cfg = parse_args(["rac"])
        assert (cfg.n, cfg.seed) == (2, 0)
        assert "n" not in cfg.options and "seed" not in cfg.options

    def test_seesaw_flags(self):
        cfg = parse_args(["seesaw", "--metric", "counterexample", "--restarts", "50"])
        assert cfg.command == "seesaw"
        assert cfg.options["metric"] == "counterexample"
        assert cfg.options["restarts"] == 50
        assert cfg.seed == 0

    @pytest.mark.parametrize("command, n", [("spectrum", "9"), ("certify", "8"),
                                            ("sos", "8"), ("seesaw", "8")],
                             ids=["spectrum", "certify", "sos", "seesaw"])
    def test_spectrum_rejects_large_n(self, capsys, command, n):
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--n", n])
        assert exc.value.code == 2
        assert "(n <= 7)" in capsys.readouterr().err

    def test_certify_input_path(self):
        cfg = parse_args(["certify", "--input", "strategy.json"])
        assert cfg.input_path == "strategy.json"

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certify", "--bogus", "1"])
        assert exc.value.code == 2

    def test_tolerance_overrides(self):
        cfg = parse_args(["certify", "--tol.metric=1e-4", "--tol.spectrum=1e-7"])
        assert cfg.tolerances == {"metric": 1e-4, "spectrum": 1e-7}

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certify", "--tol.bogus=1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["certify", "spectrum", "sos"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_value_rejected(self, tmp_path, capsys, command, value):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "3", f"--tol.spectrum={value}", "-o", str(out)])
        assert exc.value.code == 2
        assert "tolerance spectrum must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["seesaw", "--n", "2", "--restarts", "1"],
        ["counterexample"],
        ["robustness-grid", "--step", "0.5"],
        ["fidelity-bound", "--eps", "0.1"],
        ["partial-bell"],
        ["rac"],
    ], ids=lambda argv: argv[0])
    def test_tolerance_on_a_command_without_tolerances_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol.metric=1", "-o", str(out)])
        assert exc.value.code == 2
        assert f"{argv[0]} applies no tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tolerances_cannot_pass_a_non_ghz_measurement(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--fixture", "computational", "--n", "3", "--tol.metric=inf",
                  "--tol.ghz_fidelity=inf", "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


def _help_texts(parser) -> dict:
    """The --help text of the main parser and of every subcommand."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": parser.format_help(),
            **{name: p.format_help() for name, p in subs.choices.items()}}


def _fresh_parse(argv):
    cli._parser.cache_clear()
    return parse_args(argv)


class TestParserReuse:
    def test_parse_args_shares_one_parser_and_build_parser_stays_fresh(self, monkeypatch):
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        parse_args(["certify"])
        parse_args(["rac"])
        assert len(built) == 1
        assert cli._parser() is built[0]
        assert build_parser() is not build_parser()
        cli._parser.cache_clear()

    @pytest.mark.parametrize("first, second, want", [
        (["certify", "--fixture", "depolarized", "--noise", "0.1"], ["certify"],
         {"n": 2, "input_path": None,
          "options": {"fixture": "ideal", "noise": 0.0}}),
        (["seesaw", "--restarts", "5"], ["seesaw"], {"options.restarts": 50}),
        (["certify", "--input", "F"], ["certify", "--fixture", "ideal"],
         {"input_path": None, "n": 2}),
    ], ids=["certify-noise", "seesaw-restarts", "certify-input"])
    def test_defaults_do_not_leak_between_calls(self, first, second, want):
        parse_args(first)
        cfg = parse_args(second)
        for key, value in want.items():
            if key.startswith("options."):
                assert cfg.options[key.split(".", 1)[1]] == value
            else:
                assert getattr(cfg, key) == value
        assert cfg == _fresh_parse(second)

    def test_refused_argv_leaves_the_parser_as_it_was(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certify", "--noise", "0.1"])
        assert exc.value.code == 2
        assert "--noise applies to --fixture depolarized only" in capsys.readouterr().err
        argv = ["certify", "--fixture", "depolarized", "--n", "3"]
        assert parse_args(argv) == _fresh_parse(argv)

    def test_help_matches_a_fresh_parser(self):
        for argv in (["certify", "--input", "F"], ["seesaw", "--restarts", "5"],
                     ["robustness-grid", "--n", "3"], ["rac"]):
            parse_args(argv)
        assert _help_texts(cli._parser()) == _help_texts(build_parser())

    def test_at_most_one_parser_per_process(self, monkeypatch):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        for k in range(20):
            parse_args(["certify", "--n", str(2 + k % 3)] if k % 2 else ["rac"])
        # the main parser and its 9 subcommand parsers
        assert 0 < len(constructed) <= 10


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None]})
        assert text == '{"a":[1,true,null],"b":0.10000000000000001}'

    def test_roundtrip_is_identity_on_canonical_files(self, tmp_path):
        path = tmp_path / "strategy.json"
        save_strategy(ideal_strategy(2), str(path))
        first = path.read_bytes()
        loaded = load_strategy(str(path))
        save_strategy(loaded, str(path))
        assert path.read_bytes() == first

    def test_strategy_dict_roundtrip(self):
        s = partial_bell_strategy()
        d = strategy_to_dict(s)
        back = strategy_from_dict(d)
        assert back.task == "partial_bell"
        assert np.abs(back.povm.elements - s.povm.elements).max() == 0
        assert np.abs(back.observables - s.observables).max() == 0

    @PROPERTY_SETTINGS
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
    def test_strategy_dict_roundtrip_keeps_every_array(self, n, seed, mixed):
        s = (random_mixed_strategy if mixed else random_strategy)(n, seed)
        back = strategy_from_dict(strategy_to_dict(s))
        assert (back.n, back.task) == (n, "ghz")
        assert np.array_equal(back.povm.elements, s.povm.elements)
        for got, want in zip(back.senders, s.senders, strict=True):
            assert np.array_equal(got.rho, want.rho)

    @PROPERTY_SETTINGS
    @given(JSON_VALUES)
    def test_canonical_json_is_byte_stable(self, value):
        first = canonical_json(value)
        assert canonical_json(json.loads(first)) == first

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bulk_strategy_file_matches_element_serialization(self, tmp_path, n):
        path = tmp_path / "s.json"
        strategies = [random_strategy(n, 5), random_mixed_strategy(n, 6)]
        if n == 2:
            strategies += [partial_bell_strategy(), depolarized_partial_bell(0.1)]
        for s in strategies:
            save_strategy(s, str(path))
            assert path.read_text(encoding="utf-8") == canonical_json(strategy_to_dict(s))

    def test_bulk_strategy_file_normalizes_negative_zero(self, tmp_path):
        s = ideal_strategy(2)
        rho = s.senders[0].rho.copy()
        rho.imag[...] = -0.0
        els = s.povm.elements.copy()
        els[1, 2, 3] = complex(-0.0, -0.0)
        s = Strategy(n=2, senders=(SenderStates(rho), s.senders[1]), povm=Povm(els))
        path = tmp_path / "s.json"
        save_strategy(s, str(path))
        text = path.read_text(encoding="utf-8")
        assert text == canonical_json(strategy_to_dict(s))
        assert "-0," not in text and "-0]" not in text

    def test_loaded_strategy_evaluates_identically(self, tmp_path):
        path = tmp_path / "s.json"
        s = ideal_strategy(3)
        save_strategy(s, str(path))
        assert abs(success_metric(load_strategy(str(path))) - 1) < 1e-10

    @pytest.mark.parametrize("seed", [3, 11])
    def test_strategy_file_roundtrips_bit_for_bit(self, tmp_path, seed):
        path = tmp_path / "s.json"
        s = random_antipodal_strategy(6, seed)
        save_strategy(s, str(path))
        back = load_strategy(str(path))
        assert (back.n, back.task, back.observables) == (6, "ghz", None)
        assert back.povm.elements.tobytes() == s.povm.elements.tobytes()
        for got, want in zip(back.senders, s.senders, strict=True):
            assert got.rho.tobytes() == want.rho.tobytes()


class TestLoadStrategyGc:
    """The parse runs with the cyclic collector paused; the caller's setting
    survives a return and a raise."""

    @pytest.fixture
    def caller_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("content", ["valid", "{not json"])
    def test_caller_setting_is_restored(self, tmp_path, caller_gc, caller_enabled, content):
        path = tmp_path / "s.json"
        if content == "valid":
            save_strategy(ideal_strategy(2), str(path))
        else:
            path.write_text(content)
        (gc.enable if caller_enabled else gc.disable)()
        if content == "valid":
            load_strategy(str(path))
        else:
            with pytest.raises(json.JSONDecodeError):
                load_strategy(str(path))
        assert gc.isenabled() is caller_enabled

    def test_restored_after_an_input_error(self, tmp_path, caller_gc):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff\xfe{}")
        gc.enable()
        with pytest.raises(InvalidInput):
            load_strategy(str(path))
        assert gc.isenabled()

    def test_parse_runs_paused(self, tmp_path, monkeypatch, caller_gc):
        path = tmp_path / "s.json"
        save_strategy(ideal_strategy(2), str(path))
        seen = []
        parse = json.load

        def recording(fh):
            seen.append(gc.isenabled())
            return parse(fh)

        monkeypatch.setattr(json, "load", recording)
        gc.enable()
        load_strategy(str(path))
        assert seen == [False] and gc.isenabled()


class TestRun:
    def test_certify_ideal_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(parse_args(["certify", "--n", "2", "-o", str(out)]))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert abs(report["results"]["metric_value"] - 1) < 1e-10
        assert all(abs(f - 1) < 1e-10 for f in report["results"]["ghz_fidelities"])
        assert "PASS" in capsys.readouterr().out

    def test_certify_computational_fails(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["certify", "--fixture", "computational", "-o", str(out)]))
        assert code == 1
        report = json.loads(out.read_text())
        assert all(abs(f - 0.5) < 1e-10 for f in report["results"]["ghz_fidelities"])

    def test_certify_strategy_file(self, tmp_path):
        strat = tmp_path / "s.json"
        out = tmp_path / "r.json"
        save_strategy(ideal_strategy(2), str(strat))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(out)]))
        assert code == 0

    def test_certify_strategy_file_reports_its_n(self, tmp_path):
        strat = tmp_path / "s.json"
        out = tmp_path / "r.json"
        save_strategy(ideal_strategy(3), str(strat))
        assert run(parse_args(["certify", "--input", str(strat), "-o", str(out)])) == 0
        report = json.loads(out.read_text())
        assert report["config"]["n"] == 3
        assert len(report["results"]["povm_traces"]) == 8

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--fixture", "ideal", "--noise", "0.3"],
         "--noise applies to --fixture depolarized only"),
        (["certify", "--noise", "0"], "--noise applies to --fixture depolarized only"),
        (["certify", "--input", "FILE", "--fixture", "ideal"],
         "argument --fixture: not allowed with argument --input"),
        (["certify", "--input", "FILE", "--noise", "0.05"],
         "--noise applies to --fixture depolarized only"),
        (["certify", "--input", "FILE", "--n", "5"],
         "--n 5 differs from the file's n 2"),
        (["partial-bell", "--input", "FILE", "--noise", "0.5"],
         "argument --noise: not allowed with argument --input"),
        (["partial-bell", "--noise", "0", "--input", "FILE"],
         "argument --input: not allowed with argument --noise"),
        (["seesaw", "--metric", "counterexample", "--n", "3"],
         "metric 'counterexample' is a two-sender game"),
        (["seesaw", "--seed", "-1", "--restarts", "2"], "seed must lie in [0, 2**64)"),
        (["seesaw", "--seed", str(2**64), "--restarts", "2"], "seed must lie in [0, 2**64)"),
        (["sos", "--seed", "-1"], "seed must lie in [0, 2**64)"),
        (["sos", "--seed", str(2**64 - 1), "--samples", "2"],
         "--seed + --samples - 1 must lie below 2**64"),
    ], ids=["noise-ideal", "noise-default-fixture", "input-fixture", "input-noise",
            "input-other-n", "partial-bell-input-noise", "partial-bell-noise-0-input",
            "counterexample-n3", "seesaw-seed-negative", "seesaw-seed-2**64",
            "sos-seed-negative", "sos-seeds-past-2**64"])
    def test_flag_the_run_cannot_honour_is_an_input_error(self, tmp_path, capsys, argv,
                                                          message):
        strat = tmp_path / "s2.json"
        save_strategy(ideal_strategy(2), str(strat))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main([str(strat) if a == "FILE" else a for a in argv] + ["-o", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_certify_input_accepts_the_file_n(self, tmp_path):
        strat = tmp_path / "s3.json"
        save_strategy(ideal_strategy(3), str(strat))
        reports = []
        for extra in ([], ["--n", "3"]):
            out = tmp_path / f"r{len(reports)}.json"
            assert run(parse_args(["certify", "--input", str(strat), *extra, "-o", str(out)])) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["options"] == {"fixture": None, "noise": None}

    @pytest.mark.parametrize("argv", [
        ["seesaw", "--seed", str(2**64 - 1), "--restarts", "1", "--max-iters", "2"],
        ["sos", "--seed", str(2**64 - 2), "--samples", "2"],
    ], ids=lambda argv: argv[0])
    def test_largest_seeds_are_accepted(self, tmp_path, argv):
        out = tmp_path / "r.json"
        run(parse_args(argv + ["-o", str(out)]))
        assert json.loads(out.read_text())["config"]["seed"] == int(argv[2])

    def test_module_entry_point_runs_the_command(self, tmp_path):
        src = str(Path(ghz_selftest.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ghz_selftest.cli",
             "certify", "--fixture", "computational", "--n", "3"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        report = json.loads((tmp_path / "report-certify.json").read_text())
        assert report["passed"] is False and report["config"]["n"] == 3

    def test_missing_input_is_io_error(self, tmp_path):
        code = run(parse_args(["certify", "--input", str(tmp_path / "absent.json"),
                               "-o", str(tmp_path / "r.json")]))
        assert code == 2

    def test_malformed_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(parse_args(["certify", "--input", str(bad), "-o", str(tmp_path / "r.json")]))
        assert code == 2

    @pytest.mark.parametrize("field, value, path", [
        ("rho", float("nan"), "senders[1].rho[0][1]"),
        ("povm", float("inf"), "povm[2]"),
    ])
    def test_non_finite_strategy_entry_is_an_input_error(self, tmp_path, capsys,
                                                          field, value, path):
        data = strategy_to_dict(ideal_strategy(2))
        matrix = data["senders"][1]["rho"][0][1] if field == "rho" else data["povm"][2]
        matrix[0][0][0] = value
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and path in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("defect, field", [
        ("third number in a pair", "povm[0]"),
        ("three of four entries in a row", "povm[1]"),
        ("2x3 matrix", "senders[0].rho[0][0]"),
        ("n not a number", "n is not an integer"),
    ])
    def test_malformed_strategy_file_is_an_input_error(self, tmp_path, capsys, defect, field):
        data = strategy_to_dict(ideal_strategy(2))
        if defect == "third number in a pair":
            data["povm"][0][0][0].append(5.0)
        elif defect == "three of four entries in a row":
            del data["povm"][1][2][3]
        elif defect == "2x3 matrix":
            data["senders"][0]["rho"][0][0] = [row + [[0.0, 0.0]] for row in
                                               data["senders"][0]["rho"][0][0]]
        else:
            data["n"] = "two"
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(2)), ("partial-bell", partial_bell_strategy()),
    ])
    @pytest.mark.parametrize("n", [2.7, "2", True, MAX_N + 1, 10**12],
                             ids=["float", "string", "bool", "above-cap", "huge"])
    def test_strategy_file_n_must_be_an_integer_in_range(self, tmp_path, capsys,
                                                          command, strategy, n):
        data = strategy_to_dict(strategy)
        data["n"] = n
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: strategy file field n is not an integer "
            f"from 2 to {MAX_N}: {n!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "partial-bell"])
    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe" + b"{}" * 8, "strategy file is not UTF-8 text"),
        (b"[" * 200000 + b"]" * 200000, "strategy file nests too deeply to parse"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_strategy_file_is_an_input_error(self, tmp_path, capsys,
                                                         command, content, message):
        strat = tmp_path / "s.json"
        strat.write_bytes(content)
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err.startswith(f"{command}: error: {message}")
        assert not out.exists()

    def test_tolerance_override_applies(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["spectrum", "--n", "3", "--tol.spectrum=1e-30", "-o", str(out)]))
        assert code == 1  # float roundoff cannot satisfy an impossible tolerance

    def test_one_outcome_deviation_is_at_most_the_all_outcome_one(self, tmp_path):
        def deviation(*extra):
            out = tmp_path / "r.json"
            assert run(parse_args(["spectrum", "--n", "4", *extra, "-o", str(out)])) == 0
            return json.loads(out.read_text())["results"]["max_numeric_deviation"]

        worst = deviation()
        assert max(deviation("--s", format(m, "04b")) for m in range(16)) == worst

    def test_fidelity_bound_value(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(parse_args(["fidelity-bound", "--n", "2", "--eps", "0.1", "-o", str(out)]))
        assert code == 0
        assert "bound=0.80428932188134" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert abs(report["results"]["bound"] - 0.8042893218813452) < 1e-15

    def test_zero_noise_depolarized_matches_ideal(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["certify", "--fixture", "depolarized", "--noise", "0",
                               "-o", str(out)]))
        assert code == 0
        assert abs(json.loads(out.read_text())["results"]["metric_value"] - 1) < 1e-10

    def test_grid_csv_bytes_deterministic(self, tmp_path):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(parse_args(["robustness-grid", "--step", "0.3926990816987241",
                            "--csv", str(path), "-o", str(tmp_path / "r.json")]))
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    def test_report_bytes_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["sos", "--n", "2", "--samples", "3", "--seed", "7"]
        assert run(parse_args(argv + ["-o", str(out1)])) == 0
        assert run(parse_args(argv + ["-o", str(out2)])) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sos_reports_the_least_shifted_eigenvalue_over_the_samples(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(parse_args(["sos", "--n", "5", "--samples", "4", "--seed", "9",
                               "-o", str(out)])) == 0
        samples = [a_operators(random_antipodal_strategy(5, 9 + k)) for k in range(4)]
        want = min(witness_bounds(ops, DEFAULT_TOLERANCES["spectrum"])[1] for ops in samples)
        assert want > 1
        assert json.loads(out.read_text())["results"]["min_shifted_eigenvalue"] == want

    @pytest.mark.parametrize("argv, message", [
        (["sos", "--samples", "0"], "--samples must be at least 1"),
        (["sos", "--samples", "-3"], "--samples must be at least 1"),
        (["partial-bell", "--noise", "nan"], "noise must lie in [0, 1]"),
        (["partial-bell", "--noise", "-0.5"], "noise must lie in [0, 1]"),
        (["seesaw", "--restarts", "1", "--conv-tol", "nan"], "conv_tol finite and > 0"),
    ], ids=["sos-zero", "sos-negative", "noise-nan", "noise-negative", "conv-tol-nan"])
    def test_vacuous_or_non_finite_option_is_an_input_error(self, tmp_path, capsys,
                                                            argv, message):
        out = tmp_path / "r.json"
        assert run(parse_args(argv + ["-o", str(out)])) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seesaw_history_and_strategy_export(self, tmp_path):
        out = tmp_path / "r.json"
        hist = tmp_path / "hist.csv"
        strat = tmp_path / "best.json"
        code = run(parse_args([
            "seesaw", "--metric", "ghz", "--n", "2", "--restarts", "3",
            "--history-csv", str(hist), "--save-strategy", str(strat), "-o", str(out),
        ]))
        assert code == 0
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "restart,iteration,value"
        per_restart = {}
        for line in lines[1:]:
            r, i, v = line.split(",")
            per_restart.setdefault(int(r), []).append(float(v))
        assert set(per_restart) == {0, 1, 2}
        for vals in per_restart.values():
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        best = load_strategy(str(strat))
        assert success_metric(best) >= 1 - 1e-6

    @pytest.mark.parametrize("n, restarts", [(5, 3), (4, 9)])
    def test_seesaw_files_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch,
                                                          n, restarts):
        outputs = []
        for budget in (optimize.BLOCK_ENTRIES, 1):  # one block, then blocks of one
            monkeypatch.setattr(optimize, "BLOCK_ENTRIES", budget)
            files = [tmp_path / name for name in ("r.json", "h.csv", "s.json")]
            assert run(parse_args([
                "seesaw", "--metric", "ghz", "--n", str(n), "--restarts", str(restarts),
                "--seed", "5", "-o", str(files[0]), "--history-csv", str(files[1]),
                "--save-strategy", str(files[2]),
            ])) == 0
            outputs.append([f.read_bytes() for f in files])
        assert outputs[0] == outputs[1]

    def test_counterexample_strategy_export_rejected_before_the_search(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        hist = tmp_path / "h.csv"
        with pytest.raises(SystemExit) as exc:
            main(["seesaw", "--metric", "counterexample", "--restarts", "3",
                  "--history-csv", str(hist), "--save-strategy", str(tmp_path / "s.json"),
                  "-o", str(out)])
        assert exc.value.code == 2
        assert "three-input strategies have no strategy-file form" in capsys.readouterr().err
        assert not out.exists() and not hist.exists()
        assert not (tmp_path / "s.json").exists()

    def test_robustness_grid_csv(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "grid.csv"
        code = run(parse_args([
            "robustness-grid", "--n", "2", "--step", "0.3926990816987241",
            "--csv", str(csv), "-o", str(out),
        ]))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "s,alpha_1,alpha_2,margin"
        assert len(lines) == 1 + 4 * 5 * 5

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_robustness_grid_bad_step_is_an_input_error(self, tmp_path, capsys, step):
        out = tmp_path / "r.json"
        code = run(parse_args(["robustness-grid", "--step", step, "-o", str(out)]))
        assert code == 2
        assert "step must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-6", "5e-324"])
    def test_robustness_grid_too_large_is_an_input_error(self, tmp_path, capsys, step):
        out = tmp_path / "r.json"
        code = run(parse_args(["robustness-grid", "--n", "2", "--step", step, "-o", str(out)]))
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_fidelity_bound_nan_eps_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(parse_args(["fidelity-bound", "--n", "2", "--eps", "nan", "-o", str(out)]))
        assert code == 2
        assert "eps must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_bad_thread_count_is_an_input_error(self, threads, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GHZ_SELFTEST_THREADS", threads)
        out = tmp_path / "r.json"
        code = run(parse_args(["seesaw", "--n", "2", "--restarts", "1", "-o", str(out)]))
        assert code == 2
        assert "GHZ_SELFTEST_THREADS must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_robustness_grid_violation_fails_with_report(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "grid.csv"
        code = run(parse_args([
            "robustness-grid", "--step", "0.3926990816987241", "--r", "0.3535533905932738",
            "--mu", "0.0", "--csv", str(csv), "-o", str(out),
        ]))
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["results"]["min_margin"] < -1e-6
        assert report["results"]["points"] == 4 * 5 * 5
        assert len(csv.read_text().strip().splitlines()) == 1 + 4 * 5 * 5

    def test_counterexample_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["counterexample", "-o", str(out)]))
        assert code == 0
        report = json.loads(out.read_text())
        ent = report["results"]["entangling"]
        sep = report["results"]["separable"]
        assert any(e["entangled"] for e in ent["outcome_classification"])
        assert not any(e["entangled"] for e in sep["outcome_classification"])

    def test_partial_bell_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["partial-bell", "-o", str(out)]))
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["comm_metric"] - 1) < 1e-10
        assert abs(res["rac_metric"] - (1 + 1 / np.sqrt(2)) / 2) < 1e-10
        assert abs(res["witness_traces"][2] - 4 * np.sqrt(2)) < 1e-10
        assert abs(res["fidelity_bound"] - 1) < 1e-10

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(3)), ("partial-bell", partial_bell_strategy()),
    ])
    def test_strategy_file_is_validated_once(self, tmp_path, monkeypatch, command, strategy):
        calls = []
        validate = Povm.validate

        def counting(self, *args, **kwargs):
            calls.append(len(self))
            return validate(self, *args, **kwargs)

        monkeypatch.setattr(Povm, "validate", counting)
        strat = tmp_path / "s.json"
        save_strategy(strategy, str(strat))
        code = run(parse_args([command, "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 0
        assert calls == [len(strategy.povm)]

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(2)), ("partial-bell", partial_bell_strategy()),
    ])
    def test_invalid_strategy_file_is_an_input_error(self, tmp_path, capsys, command, strategy):
        data = strategy_to_dict(strategy)
        data["povm"][1] = [[[-re, -im] for re, im in row] for row in data["povm"][1]]
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: POVM element 1 is not positive semidefinite\n")
        assert not out.exists()

    def test_invalid_state_names_its_sender(self, tmp_path, capsys):
        data = strategy_to_dict(ideal_strategy(3))
        data["senders"][2]["rho"][1][0] = [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args(["certify", "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            "certify: error: sender 3: state (1|0) has trace 0.9\n")
        assert not out.exists()

    def test_unwritable_report_path_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert run(parse_args(["certify", "--n", "2", "-o", str(out)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("certify: error: ") and "No such file or directory" in err
        assert not out.exists()

    def test_partial_bell_strategy_file(self, tmp_path):
        strat = tmp_path / "pb.json"
        out = tmp_path / "r.json"
        save_strategy(partial_bell_strategy(), str(strat))
        code = run(parse_args(["partial-bell", "--input", str(strat), "-o", str(out)]))
        assert code == 0
        assert abs(json.loads(out.read_text())["results"]["comm_metric"] - 1) < 1e-10

    def test_rac_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(parse_args(["rac", "-o", str(out)])) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["rac_metric"] - 0.8535533905932737) < 1e-12

    def test_spectrum_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(parse_args(["spectrum", "--n", "3", "-o", str(out)])) == 0
        res = json.loads(out.read_text())["results"]
        assert res["max_numeric_deviation"] <= 1e-9
        assert abs(res["top_value"] - 4 * np.sqrt(2)) < 1e-12
        assert len(res["eigenvalues_by_outcome"]) == 8

    def test_spectrum_of_one_outcome_matches_its_entry_in_all(self, tmp_path):
        one, every = tmp_path / "one.json", tmp_path / "all.json"
        assert run(parse_args(["spectrum", "--n", "4", "--s", "0110", "-o", str(one)])) == 0
        assert run(parse_args(["spectrum", "--n", "4", "-o", str(every)])) == 0
        one, every = (json.loads(p.read_text())["results"] for p in (one, every))
        assert one["eigenvalues_by_outcome"] == {
            "0110": every["eigenvalues_by_outcome"]["0110"]}
        assert one["max_numeric_deviation"] <= every["max_numeric_deviation"] <= 1e-9
