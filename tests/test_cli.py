import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghz_selftest
from ghz_selftest.cli import (
    canonical_json,
    load_strategy,
    main,
    parse_args,
    run,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from ghz_selftest.fixtures import depolarized_partial_bell, ideal_strategy, partial_bell_strategy
from ghz_selftest.scenario import a_operators, success_metric
from ghz_selftest.selftest import min_shifted_eigenvalue, witness_spectra
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


class TestParsing:
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

    def test_infinite_tolerances_cannot_pass_a_non_ghz_measurement(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--fixture", "computational", "--n", "3", "--tol.metric=inf",
                  "--tol.ghz_fidelity=inf", "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


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

    def test_tolerance_override_applies(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["spectrum", "--n", "3", "--tol.spectrum=1e-30", "-o", str(out)]))
        assert code == 1  # float roundoff cannot satisfy an impossible tolerance

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
        want = min(min_shifted_eigenvalue(5, witness_spectra(ops)) for ops in samples)
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

    def test_bad_thread_count_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GHZ_SELFTEST_THREADS", "abc")
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
