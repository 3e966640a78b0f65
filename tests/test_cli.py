import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pagecert import robust_train
from pagecert.cli import load_config, main, resolve_config
from pagecert.graph import generate_sbm, sbm_block_labels
from pagecert.models import FEATURES_MAGIC


def write_fixture(tmp_path, n=12, blocks=2, p_in=0.7, p_out=0.1, seed=2):
    G = generate_sbm(n, blocks, p_in, p_out, seed=seed)
    labels = sbm_block_labels(n, blocks)
    gpath = tmp_path / "graph.tsv"
    lpath = tmp_path / "labels.tsv"
    with gpath.open("w") as fh:
        for s, d in G.edges:
            fh.write(f"{s}\t{d}\n")
    with lpath.open("w") as fh:
        for v, c in enumerate(labels):
            fh.write(f"{v}\t{c}\n")
    return gpath, lpath


GOOD_RECORD = ('{"node": 0, "y": 0, "worst_class": 1, "worst_margin": 0.5, '
               '"status": "robust", "bound_type": "exact", "marginal": false, '
               '"witness_flips": []}')


def base_config(tmp_path, out, mode="certify-local", extra=""):
    gpath, lpath = write_fixture(tmp_path)
    cfg = tmp_path / f"{out}.cfg"
    cfg.write_text(
        f"""
# fixture run
mode = {mode}
alpha = 0.85
paths.graph = {gpath}
paths.labels = {lpath}
paths.output = {tmp_path / out}
scenario.mode = remove-only
scenario.strength = 4
{extra}
""".strip()
        + "\n"
    )
    return cfg


def validate_config(path) -> tuple[list[str], list[str]]:
    cfg = resolve_config(load_config(path))
    return cfg.errors, cfg.warnings


class TestConfigValidation:
    def test_missing_graph_path(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode = certify-local\npaths.output = out\n")
        errors, _ = validate_config(cfg)
        assert any("paths.graph required" in e for e in errors)

    def test_negative_strength_warns(self, tmp_path):
        cfg = base_config(tmp_path, "w", extra="scenario.strength = -3")
        errors, warnings = validate_config(cfg)
        assert not errors
        assert any("clamp" in w for w in warnings)

    def test_unknown_key_warns(self, tmp_path):
        cfg = base_config(tmp_path, "u", extra="bogus.key = 1")
        _, warnings = validate_config(cfg)
        assert any("bogus.key" in w for w in warnings)

    def test_solver_method_key_is_gone(self, tmp_path, capsys):
        # the graph's size picks the PageRank solver and the LP tolerances
        # are fixed; an old config that still sets one of these warns and runs
        assert main(["--list-keys"]) == 0
        listed = capsys.readouterr().out
        for i, setting in enumerate(["solver.method = dense",
                                     "solver.lp_feasibility = 1e-6",
                                     "solver.lp_optimality = 1e-8"]):
            key = setting.split(" = ")[0]
            cfg = base_config(tmp_path, f"sm{i}", extra=setting)
            _, warnings = validate_config(cfg)
            assert f"unknown key {key!r} ignored" in warnings, key
            assert key not in listed
            assert main(["--config", str(cfg)]) == 0, key

    @pytest.mark.parametrize("setting", [
        "solver.bound_method = bogus",
        "train.margin = -1",
        "train.epochs = 0",
        "train.cadence = 0",
        "train.per_class = 0",
        "train.patience = -1",
        "train.hidden = -1",
        "sbm.p_out = abc",
        "train.lr = abc",
        "targets.count = abc",
        "graph.symmetrize = maybe",
        "graph.lcc = sure",
        "seed = -1",
        "targets.count = 0",
        "sbm.blocks = 0",
        "train.margin = nan",
        "train.lr = inf",
        "train.reg = -inf",
        "sbm.p_in = nan",
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, setting):
        cfg = base_config(tmp_path, "bad", mode="certify-global", extra=setting)
        errors, _ = validate_config(cfg)
        assert any(e.startswith(setting.split(" = ")[0]) for e in errors)
        assert main(["--config", str(cfg), "--validate"]) == 2
        assert main(["--config", str(cfg)]) == 2
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("settings, message", [
        (["sbm.n=2", "sbm.blocks=3"], "sbm.n must be >= sbm.blocks, got 2 < 3"),
        (["sbm.p_in=0.1", "sbm.p_out=0.5"], "0 <= p_out <= p_in <= 1"),
        (["sbm.p_in=1.5"], "0 <= p_out <= p_in <= 1"),
        (["sbm.p_out=-0.1"], "0 <= p_out <= p_in <= 1"),
    ], ids=["n-below-blocks", "p-out-above-p-in", "p-in-above-1", "p-out-negative"])
    def test_gen_sbm_checks_before_output(self, tmp_path, capsys, settings, message):
        out = tmp_path / "sbm"
        base = ["mode=gen-sbm", f"paths.output={out}", "sbm.n=30", "sbm.blocks=3",
                "sbm.p_in=0.5", "sbm.p_out=0.05"]
        argv = [a for s in base + settings for a in ("--set", s)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, content, message", [
        ("--config", b"mode = certify-local\nalpha = 0.\xff\n", "in.txt:2: not UTF-8 text"),
        ("--from-manifest", b'{"config": {"mode": "cert', "in.txt is not JSON"),
        ("--from-manifest", b'{"config": {"mode": "\xff"}}', "in.txt is not JSON"),
        ("--from-manifest", b"{}", "objects of strings"),
        ("--from-manifest", b"[]", "objects of strings"),
        ("--from-manifest", b'{"config": {"seed": 3}}', "objects of strings"),
        ("--from-manifest", b'{"config": {"seed": "3"}, "input_digests": []}',
         "objects of strings"),
    ], ids=["config-not-utf8", "manifest-not-json", "manifest-not-utf8",
            "manifest-no-config", "manifest-not-object", "manifest-non-string",
            "manifest-digests-not-object"])
    def test_unreadable_config_or_manifest(self, tmp_path, capsys, flag, content,
                                           message):
        path = tmp_path / "in.txt"
        path.write_bytes(content)
        assert main([flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_bad_mode_error(self):
        cfg = resolve_config({"mode": "frobnicate"})
        assert cfg.errors

    def test_validate_flag_exit_codes(self, tmp_path):
        cfg = base_config(tmp_path, "v")
        assert main(["--config", str(cfg), "--validate"]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = nope\n")
        assert main(["--config", str(bad), "--validate"]) == 2


class TestPipelines:
    def test_certify_local_outputs(self, tmp_path):
        cfg = base_config(tmp_path, "run1")
        assert main(["--config", str(cfg)]) == 0
        out = tmp_path / "run1"
        assert (out / "certificates.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert (out / "scenario.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "certify-local"
        records = [json.loads(l) for l in
                   (out / "certificates.jsonl").read_text().splitlines()]
        assert len(records) == 12
        assert all(r["bound_type"] == "exact" for r in records)

    @pytest.mark.parametrize("alpha", ["0.999", "0.9999"])
    def test_certify_local_with_alpha_near_one(self, tmp_path, alpha):
        # near alpha = 1 a solve's evaluated residual is mostly rounding
        # error, which the solves' error bound allows for
        cfg = base_config(tmp_path, "near1")
        assert main(["--config", str(cfg), "--set", f"alpha={alpha}"]) == 0
        records = (tmp_path / "near1" / "certificates.jsonl").read_text().splitlines()
        assert len(records) == 12

    def test_certify_local_byte_stable(self, tmp_path):
        cfg1 = base_config(tmp_path, "runA")
        main(["--config", str(cfg1)])
        first = (tmp_path / "runA" / "certificates.jsonl").read_bytes()
        cfg2 = base_config(tmp_path, "runB")
        main(["--config", str(cfg2)])
        second = (tmp_path / "runB" / "certificates.jsonl").read_bytes()
        assert first == second

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path, "orig")
        assert main(["--config", str(cfg)]) == 0
        out = tmp_path / "orig"
        manifest = out / "manifest.json"
        redo = tmp_path / "redo"
        assert main(["--from-manifest", str(manifest),
                     "--set", f"paths.output={redo}"]) == 0
        for name in ("certificates.jsonl", "summary.csv", "scenario.txt"):
            assert (out / name).read_bytes() == (redo / name).read_bytes()

    def test_rerun_from_manifest_checks_input_digests(self, tmp_path, capsys):
        cfg = base_config(tmp_path, "orig")
        assert main(["--config", str(cfg)]) == 0
        manifest = str(tmp_path / "orig" / "manifest.json")
        redo = f"paths.output={tmp_path / 'redo'}"
        gpath = tmp_path / "graph.tsv"
        gpath.write_text(gpath.read_text() + "0\t11\n")
        capsys.readouterr()
        assert main(["--from-manifest", manifest, "--set", redo]) == 4
        assert "paths.graph (digest mismatch)" in capsys.readouterr().err
        assert not (tmp_path / "redo").exists()
        (tmp_path / "labels.tsv").unlink()
        assert main(["--from-manifest", manifest, "--set", redo]) == 4
        assert "paths.labels (missing)" in capsys.readouterr().err

    def test_certify_global_zero_budget_matches_clean_margins(self, tmp_path):
        cfg = base_config(
            tmp_path, "glob", mode="certify-global",
            extra="scenario.global_budget = 0\ntargets.count = 6",
        )
        assert main(["--config", str(cfg)]) == 0
        out = tmp_path / "glob"
        records = [json.loads(l) for l in
                   (out / "certificates.jsonl").read_text().splitlines()]
        assert len(records) == 6
        assert all(r["bound_type"] == "lower" for r in records)
        # B=0 forbids every flip: nothing can be attacked, so no record may
        # carry a verified attack
        assert not any(r["attack_verified"] for r in records)

    def test_attack_mode_writes_witnesses(self, tmp_path):
        cfg = base_config(tmp_path, "atk", mode="attack",
                          extra="scenario.strength = 12")
        assert main(["--config", str(cfg)]) == 0
        out = tmp_path / "atk"
        assert (out / "attacks.jsonl").exists()

    def test_gen_sbm_mode(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(
            f"mode = gen-sbm\npaths.output = {tmp_path / 'sbm'}\n"
            "sbm.n = 30\nsbm.blocks = 3\nsbm.p_in = 0.5\nsbm.p_out = 0.05\n"
            "seed = 9\n"
        )
        assert main(["--config", str(cfg)]) == 0
        assert (tmp_path / "sbm" / "graph.tsv").exists()
        assert (tmp_path / "sbm" / "labels.tsv").exists()

    def test_report_mode(self, tmp_path):
        cfg = base_config(tmp_path, "src")
        main(["--config", str(cfg)])
        certs = tmp_path / "src" / "certificates.jsonl"
        gpath = tmp_path / "graph.tsv"
        lpath = tmp_path / "labels.tsv"
        rcfg = tmp_path / "r.cfg"
        rcfg.write_text(
            f"mode = report\npaths.graph = {gpath}\npaths.labels = {lpath}\n"
            f"paths.certificates = {certs}\n"
            f"paths.output = {tmp_path / 'rep'}\n"
        )
        assert main(["--config", str(rcfg)]) == 0
        assert (tmp_path / "rep" / "summary.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ([GOOD_RECORD, "{oops"], "c.jsonl:2: not a certificate record"),
        ([GOOD_RECORD, "\xff"], "c.jsonl:2: not a certificate record"),
        ([GOOD_RECORD] * 2 + ['{"node": 1, "status": "robust"}'],
         "c.jsonl:3: not a certificate record"),
        ([GOOD_RECORD.replace('"node": 0', '"node": 99')],
         "c.jsonl: node 99 outside [0, 12)"),
    ], ids=["not-json", "not-utf8", "missing-keys", "node-out-of-range"])
    def test_bad_certificates_file_is_reported(self, tmp_path, capsys, lines,
                                               message):
        gpath, lpath = write_fixture(tmp_path)
        certs = tmp_path / "c.jsonl"
        certs.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        rcfg = tmp_path / "r.cfg"
        rcfg.write_text(
            f"mode = report\npaths.graph = {gpath}\npaths.labels = {lpath}\n"
            f"paths.certificates = {certs}\npaths.output = {tmp_path / 'rep'}\n"
        )
        assert main(["--config", str(rcfg)]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["NaN", "Infinity", "-Infinity", "1e400",
                                        "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "int-10^400"])
    def test_non_finite_margin_is_reported(self, tmp_path, capsys, margin):
        # the program never writes a margin that is not a finite float64,
        # and json reads one
        gpath, lpath = write_fixture(tmp_path)
        certs = tmp_path / "c.jsonl"
        bad = GOOD_RECORD.replace('"worst_margin": 0.5', f'"worst_margin": {margin}')
        certs.write_text(GOOD_RECORD + "\n" + bad + "\n")
        rcfg = tmp_path / "r.cfg"
        rcfg.write_text(
            f"mode = report\npaths.graph = {gpath}\npaths.labels = {lpath}\n"
            f"paths.certificates = {certs}\npaths.output = {tmp_path / 'rep'}\n"
        )
        assert main(["--config", str(rcfg)]) == 4
        assert "c.jsonl:2: not a certificate record" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("labels", ["# no labels\n", "0\t0\n1\t0\n"],
                             ids=["no-node", "one-class"])
    def test_label_propagation_needs_two_classes(self, tmp_path, capsys, labels):
        # the same input error as with features: exit 4 naming the file
        cfg = base_config(tmp_path, "lp")
        (tmp_path / "labels.tsv").write_text(labels)
        assert main(["--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert (f"validation error: {tmp_path / 'labels.tsv'}: labels define fewer "
                "than two classes") in err
        assert not (tmp_path / "lp").exists()

    def test_negative_class_id_is_reported(self, tmp_path, capsys):
        cfg = base_config(tmp_path, "neg")
        lpath = tmp_path / "labels.tsv"
        lpath.write_text("0\t0\n1\t1\n5\t-3\n")
        assert main(["--config", str(cfg)]) == 4
        assert f"{lpath}:3: negative class id -3" in capsys.readouterr().err
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("labels", [True, False], ids=["labels", "no-labels"])
    @pytest.mark.parametrize("margin", ['"abc"', "null"])
    def test_non_numeric_margin_is_reported(self, tmp_path, capsys, margin,
                                            labels):
        gpath, lpath = write_fixture(tmp_path)
        certs = tmp_path / "c.jsonl"
        bad = GOOD_RECORD.replace('"worst_margin": 0.5', f'"worst_margin": {margin}')
        certs.write_text(GOOD_RECORD + "\n" + bad + "\n")
        rcfg = tmp_path / "r.cfg"
        rcfg.write_text(
            f"mode = report\npaths.graph = {gpath}\n"
            + (f"paths.labels = {lpath}\n" if labels else "")
            + f"paths.certificates = {certs}\npaths.output = {tmp_path / 'rep'}\n"
        )
        assert main(["--config", str(rcfg)]) == 4
        assert "c.jsonl:2: not a certificate record" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "summary.csv").exists()

    @staticmethod
    def _train_config(tmp_path, extra="", n=24, p_in=0.8):
        gpath, lpath = write_fixture(tmp_path, n=n, p_in=p_in, p_out=0.05)
        labels = sbm_block_labels(n, 2)
        feats = tmp_path / "x.csv"
        rng = np.random.default_rng(0)
        X = np.zeros((n, 2))
        X[np.arange(n), labels] = 1.0
        X += 0.05 * rng.normal(size=X.shape)
        with feats.open("w") as fh:
            for row in X:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            f"""
mode = train
alpha = 0.85
paths.graph = {gpath}
paths.labels = {lpath}
paths.features = {feats}
paths.output = {tmp_path / 'train'}
scenario.mode = remove-only
scenario.strength = 3
train.loss = cem
train.epochs = 15
train.hidden = 0
train.per_class = 4
{extra}
""".strip() + "\n"
        )
        return cfg

    def test_train_mode(self, tmp_path):
        cfg = self._train_config(tmp_path)
        assert main(["--config", str(cfg)]) == 0
        out = tmp_path / "train"
        assert (out / "model.bin").exists()
        assert (out / "history.csv").exists()
        assert (out / "logits.csv").exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,loss,val_loss,certified_ratio"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverged_training_is_a_solver_error(self, tmp_path, capsys):
        cfg = self._train_config(tmp_path, n=40, p_in=0.3, extra=(
            "train.per_class = 5\ntrain.lr = 1e9\ntrain.epochs = 50"))
        assert main(["--config", str(cfg)]) == 3
        assert re.search(r"^solver error: loss diverged at epoch \d+$",
                         capsys.readouterr().err, re.M)
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("mode", ["train", "certify-local"])
    def test_labels_file_labelling_no_node(self, tmp_path, capsys, mode):
        cfg = self._train_config(tmp_path)
        (tmp_path / "labels.tsv").write_text("# no labels\n")
        assert main(["--config", str(cfg), "--set", f"mode={mode}"]) == 4
        assert "validation error:" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()

    def test_import_and_train_load_no_scipy(self, tmp_path):
        # graphs of at most ppr.DENSE_LIMIT nodes never need a sparse
        # matrix, and the relaxed LP and its simplex run on numpy arrays, so
        # neither the import nor a train or certify-global run may load scipy
        cfg = self._train_config(tmp_path)
        (tmp_path / "g").mkdir()
        gcfg = base_config(tmp_path / "g", "glob", mode="certify-global",
                           extra="targets.count = 1")
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import pagecert.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            f"assert pagecert.cli.main(['--config', {str(cfg)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            f"assert pagecert.cli.main(['--config', {str(gcfg)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]", "[]"]

    def test_unusable_output_fails_before_training(self, tmp_path, capsys,
                                                   monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("trained before checking paths.output")

        monkeypatch.setattr(robust_train, "train_robust", fail)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = self._train_config(tmp_path)
        out = blocker / "train"
        assert main(["--config", str(cfg), "--set", f"paths.output={out}"]) == 4
        assert f"{blocker} is not a writable directory" in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_train_patience_zero_is_kept(self, tmp_path, monkeypatch):
        seen = []

        def record(model, X, y, G, S, alpha, config, *rest, **options):
            seen.append(config)
            return model, []

        monkeypatch.setattr(robust_train, "train_robust", record)
        cfg = self._train_config(tmp_path, extra="train.patience = 0")
        assert main(["--config", str(cfg)]) == 0
        assert [c.patience for c in seen] == [0]

    def test_certify_with_feature_propagation_logits(self, tmp_path):
        gpath, lpath = write_fixture(tmp_path, n=16, p_in=0.8, p_out=0.05)
        labels = sbm_block_labels(16, 2)
        feats = tmp_path / "x.csv"
        X = np.zeros((16, 2))
        X[np.arange(16), labels] = 1.0
        with feats.open("w") as fh:
            for row in X:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        cfg = tmp_path / "fp.cfg"
        cfg.write_text(
            f"mode = certify-local\nalpha = 0.85\npaths.graph = {gpath}\n"
            f"paths.labels = {lpath}\npaths.features = {feats}\n"
            f"paths.output = {tmp_path / 'fp'}\n"
            "scenario.mode = remove-only\nscenario.strength = 4\n"
        )
        assert main(["--config", str(cfg)]) == 0
        records = [json.loads(l) for l in
                   (tmp_path / "fp" / "certificates.jsonl").read_text().splitlines()]
        assert len(records) == 16

    @pytest.mark.parametrize("rows, code, message", [
        (["1,0"] * 5 + ["0,abc"] + ["0,1"] * 6, 4, "x.csv:6: not a number"),
        (["1,0"] * 5 + ["0,1,1"] + ["0,1"] * 6, 4, "x.csv:6: 3 values, expected 2"),
        (["1,0"] * 11, 2, "features rows 11 != node count 12"),
        (["1,0"] * 5 + ["0,\xfe"] + ["0,1"] * 6, 4, "x.csv:6: not UTF-8 text"),
    ], ids=["non-number", "ragged-row", "row-count", "non-utf8"])
    def test_bad_feature_file_is_reported(self, tmp_path, capsys, rows, code, message):
        feats = tmp_path / "x.csv"
        feats.write_text("\n".join(rows) + "\n", encoding="latin-1")
        cfg = base_config(tmp_path, "bf", extra=f"paths.features = {feats}")
        assert main(["--config", str(cfg)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        (struct.pack("<q", 12), "header cut short"),
        (struct.pack("<qq", -1, 2), "negative dimension"),
        (struct.pack("<qq", 12, 2) + bytes(8 * 23),
         "payload has 184 bytes, the header needs 192"),
        (struct.pack("<qq", 12, 2) + bytes(8 * 25),
         "payload has 200 bytes, the header needs 192"),
    ], ids=["short-header", "negative-dims", "short-payload", "long-payload"])
    def test_malformed_bin_features_are_reported(self, tmp_path, capsys, body, message):
        feats = tmp_path / "x.bin"
        feats.write_bytes(FEATURES_MAGIC + body)
        cfg = base_config(tmp_path, "bb", extra=f"paths.features = {feats}")
        assert main(["--config", str(cfg)]) == 4
        assert f"{feats}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line", [
        ("graph.tsv", b"\xff\t2\n"), ("labels.tsv", b"3\t\xfe\n"),
    ], ids=["graph", "labels"])
    def test_non_utf8_input_is_reported(self, tmp_path, capsys, name, line):
        cfg = base_config(tmp_path, "nu")
        path = tmp_path / name
        lineno = len(path.read_bytes().splitlines()) + 1
        path.write_bytes(path.read_bytes() + line)
        assert main(["--config", str(cfg)]) == 4
        assert f"{name}:{lineno}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["certify-local", "train"])
    def test_bad_input_leaves_no_output_dir(self, tmp_path, capsys, mode):
        # both configs write their outputs to tmp_path / "train"
        cfg = (self._train_config(tmp_path) if mode == "train"
               else base_config(tmp_path, "train"))
        graph_tsv = tmp_path / "graph.tsv"
        graph_tsv.write_bytes(graph_tsv.read_bytes() + b"\xff\t2\n")
        assert main(["--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "graph.tsv:" in err and "not UTF-8 text" in err
        assert not (tmp_path / "train").exists()

    def test_missing_graph_file_is_validation_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"mode = certify-local\npaths.graph = {tmp_path / 'nope.tsv'}\n"
            f"paths.output = {tmp_path / 'o'}\n"
        )
        rc = main(["--config", str(cfg)])
        assert rc in (2, 4)
