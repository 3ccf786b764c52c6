"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to watch).

Budgets are wall-clock; the end-to-end pipeline criterion is the slow one
(a few minutes), everything else runs in seconds.
"""

import json
import time

import numpy as np

from mclkit import (
    StageMask,
    TrainConfig,
    accuracy,
    build_mcl,
    build_prior,
    compare_prior_effect,
    knn_compressive,
    run_ablation,
    split_semisup,
    synth_dataset,
    tensor,
    train_mclwp,
    train_mclwp_semisup,
    train_prior_semisup,
    train_prior_supervised,
)
from mclkit.cli import main
from mclkit.distill import copy_stack_params, stage3_transfer
from mclkit.layers import (
    Conv2d,
    Dense,
    GlobalAvgPool,
    LayerStack,
    MaxPool2,
    ModeProjection,
    ReLU,
    Upsample2,
)
from mclkit.losses import cross_entropy, grad_check, l1_loss, symmetric_kl
from mclkit.optimize import SupervisedObjective, train


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_kronecker_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        shape = tuple(int(rng.integers(1, hi + 1)) for hi in (6, 5, 4))
        t = rng.normal(size=shape)
        ws = [rng.normal(size=(int(rng.integers(1, 7)), d)) for d in shape]
        lhs = tensor.vectorize(tensor.multi_mode_product(t, ws))
        rhs = tensor.kron_chain(ws) @ tensor.vectorize(t)
        scale = max(float(np.max(np.abs(rhs))), 1e-30)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    elapsed = time.perf_counter() - started
    _report(1, "kronecker-equivalence", worst < 1e-6 and elapsed < 10,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def _gradient_cases(rng):
    dt = np.float64
    return [
        ("dense", LayerStack([Dense(6, 4, rng, dtype=dt)], (6,)),
         (2, 6), "l1", (2, 4), 1e-6),
        ("conv2d", LayerStack([Conv2d(2, 3, rng=rng, dtype=dt)], (6, 6, 2)),
         (2, 6, 6, 2), "l1", (2, 6, 6, 3), 1e-4),
        ("relu", LayerStack([Dense(5, 5, rng, dtype=dt), ReLU()], (5,)),
         (2, 5), "l1", (2, 5), 1e-4),
        ("maxpool2", LayerStack([MaxPool2()], (6, 6, 2)),
         (2, 6, 6, 2), "l1", (2, 3, 3, 2), 1e-4),
        ("upsample2", LayerStack([Upsample2()], (3, 4, 2)),
         (2, 3, 4, 2), "l1", (2, 6, 8, 2), 1e-6),
        ("mode_projection", LayerStack(
            [ModeProjection((4, 5, 2), (2, 3, 1), rng=rng, dtype=dt)], (4, 5, 2)),
         (2, 4, 5, 2), "l1", (2, 2, 3, 1), 1e-6),
        ("global_avg_pool", LayerStack([GlobalAvgPool()], (4, 4, 3)),
         (2, 4, 4, 3), "l1", (2, 3), 1e-6),
        ("head_tail", LayerStack([GlobalAvgPool(), Dense(12, 3, rng, dtype=dt)], (1, 2, 12)),
         (2, 1, 2, 12), "cross_entropy", None, 1e-6),
    ]


def test_criterion_02_gradient_integrity():
    started = time.perf_counter()
    worst_by_case = {}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, stack, x_shape, loss_kind, t_shape, tol in _gradient_cases(rng):
            x = rng.normal(size=x_shape)
            if loss_kind == "cross_entropy":
                target = rng.integers(0, stack.out_shape[0], size=x_shape[0])
            else:
                target = rng.normal(size=t_shape)
            err = grad_check(stack, loss_kind, x, target)
            key = (name, tol)
            worst_by_case[key] = max(worst_by_case.get(key, 0.0), err)
        # loss-level gradients against central differences
        for loss_name, fn in (
            ("cross_entropy", lambda z: cross_entropy(z, 2)[:2]),
            ("symmetric_kl", None),
            ("l1", None),
        ):
            z = rng.normal(size=7)
            ref = rng.normal(size=7)
            if loss_name == "cross_entropy":
                _, grad = cross_entropy(z, 2)
                get = lambda v: cross_entropy(v, 2)[0]
            elif loss_name == "symmetric_kl":
                _, _, grad = symmetric_kl(ref, z)
                get = lambda v: symmetric_kl(ref, v)[0]
            else:
                _, grad, _ = l1_loss(z, ref)
                get = lambda v: l1_loss(v, ref)[0]
            step = 1e-6
            err = 0.0
            for i in range(7):
                keep = z[i]
                z[i] = keep + step
                lp = get(z)
                z[i] = keep - step
                lm = get(z)
                z[i] = keep
                num = (lp - lm) / (2 * step)
                scale = max(abs(num), abs(grad[i]))
                if scale > 1e-7:
                    err = max(err, abs(num - grad[i]) / scale)
            key = (f"loss:{loss_name}", 1e-4)
            worst_by_case[key] = max(worst_by_case.get(key, 0.0), err)
    elapsed = time.perf_counter() - started
    failures = {k: v for (k, v) in worst_by_case.items() if v >= k[1]}
    worst = max(worst_by_case.values())
    _report(2, "gradient-integrity", not failures and elapsed < 120,
            f"(worst {worst:.2e}, {elapsed:.0f}s, failures={failures})")


def test_criterion_03_hosvd_initialization():
    rng = np.random.default_rng(12)
    samples = rng.normal(size=(20, 8, 8, 3))
    factors = tensor.hosvd_factors(samples, (4, 4, 1))

    def recon_err(fs):
        total = 0.0
        for s in samples:
            z = tensor.multi_mode_product(s, fs)
            total += float(np.sum((tensor.multi_mode_product(z, [f.T for f in fs]) - s) ** 2))
        return total

    base = recon_err(factors)
    wins = 0
    for _ in range(10):
        rand_fs = []
        for t, d in zip((4, 4, 1), (8, 8, 3)):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            rand_fs.append(q[:, :t].T)
        wins += base <= recon_err(rand_fs) + 1e-9

    a, b, c = rng.normal(size=6), rng.normal(size=7), rng.normal(size=2)
    rank1 = np.einsum("i,j,k->ijk", a, b, c)
    fs = tensor.hosvd_factors([rank1] * 5, (1, 1, 1))
    z = tensor.multi_mode_product(rank1, fs)
    back = tensor.multi_mode_product(z, [f.T for f in fs])
    rel = float(np.max(np.abs(back - rank1)) / np.max(np.abs(rank1)))
    _report(3, "hosvd-initialization", wins == 10 and rel < 1e-5,
            f"(energy wins {wins}/10, rank-1 rel err {rel:.2e})")


def test_criterion_04_pipeline_end_to_end():
    started = time.perf_counter()
    bundle = synth_dataset(0, (16, 16, 1), 4, n_per_class=200, noise=0.05)
    cfg = TrainConfig(epochs=25, lr_switch_epochs=(15, 20), batch_size=32, seed=0)
    teacher = build_prior((16, 16, 1), (4, 4, 1), 4, width=12, seed=0)
    train_prior_supervised(teacher, bundle, cfg)
    teacher_acc = accuracy(teacher, bundle.test_x, bundle.test_y)
    student = build_mcl((16, 16, 1), (4, 4, 1), 4, fs_kind="nonlinear", width=12, seed=0)
    train_mclwp(student, teacher, bundle, cfg, StageMask())
    student_acc = accuracy(student, bundle.test_x, bundle.test_y)
    elapsed = time.perf_counter() - started
    _report(4, "pipeline-end-to-end",
            teacher_acc >= 0.95 and student_acc >= 0.90 and elapsed < 600,
            f"(teacher {teacher_acc:.3f}, student {student_acc:.3f}, {elapsed:.0f}s)")


def test_criterion_05_prior_knowledge_trend():
    bundle = synth_dataset(1, (8, 8, 1), 3, n_per_class=40, noise=0.05)
    cfg = TrainConfig(epochs=8, lr_switch_epochs=(5, 7), batch_size=16, seed=0)
    report = compare_prior_effect(bundle, cfg, (3, 3, 1), width=8)
    trend_ok = report.medians["mclwp"] >= report.medians["mclwop"]
    # advisory: logged, not load-bearing on its own
    print(f"ACCEPTANCE  5 prior-knowledge-trend (advisory): "
          f"{'PASS' if trend_ok else 'MISS'} "
          f"(mclwp median {report.medians['mclwp']:.3f}, "
          f"mclwop median {report.medians['mclwop']:.3f})")

    # hard sub-check: zero distillation weight reproduces pure inference
    teacher = build_prior((8, 8, 1), (3, 3, 1), 3, width=8, seed=0)
    tcfg = TrainConfig(epochs=6, lr_switch_epochs=(), lr_values=(1e-3,),
                       batch_size=16, seed=0)
    train_prior_supervised(teacher, bundle, tcfg)
    zcfg = TrainConfig(epochs=4, lr_switch_epochs=(), lr_values=(1e-3,),
                       batch_size=16, seed=3, distill_weight=0.0)
    a = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="nonlinear", width=8, seed=5)
    ha = stage3_transfer(a, teacher, bundle.train_x, bundle.train_y,
                         bundle.val_x, bundle.val_y, zcfg)
    b = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="nonlinear", width=8, seed=5)
    copy_stack_params(teacher.head, b.head)
    hb = train(SupervisedObjective([b.sensing, b.synthesis, b.head]),
               bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, zcfg)
    equal = ha.rows == hb.rows and all(
        np.array_equal(pa.value, pb.value)
        for pa, pb in zip(a.all_params(), b.all_params())
    )
    _report(5, "zero-weight-distillation-equality", equal,
            f"(loss traces identical: {ha.rows == hb.rows})")


def test_criterion_06_ablation_harness(tmp_path):
    bundle = synth_dataset(2, (8, 8, 1), 3, n_per_class=20, noise=0.04)
    cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                      batch_size=16, seed=4)
    report = run_ablation(bundle, cfg, (3, 3, 1), width=4)
    rows_ok = len(report.rows) == 8 and len(
        {(r["mask_s1"], r["mask_s2"], r["mask_s3"]) for r in report.rows}
    ) == 8
    shared_ok = len(set(report.teacher_checksums)) == 1

    plain = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="nonlinear", width=4,
                      seed=cfg.seed)
    history = train(SupervisedObjective([plain.sensing, plain.synthesis, plain.head]),
                    bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg)
    ablated = report.results["000"]
    bitwise_ok = ablated.stages["inference"].rows == history.rows and all(
        np.array_equal(pa.value, pb.value)
        for pa, pb in zip(ablated.model.all_params(), plain.all_params())
    )

    # the same harness through the command-line surface
    from mclkit import save_dataset

    data_dir = tmp_path / "data"
    save_dataset(bundle, data_dir)
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("epochs=2\nlr_values=1e-3\nlr_switch_epochs=\n"
                        "batch_size=16\nwidth=4\n")
    out = tmp_path / "ablate"
    code = main(["ablate", "--dataset", str(data_dir), "--config", str(cfg_file),
                 "--measurement", "3x3x1", "--seed", "4", "--out", str(out)])
    csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
    manifest = json.loads((out / "manifest.json").read_text())
    cli_ok = code == 0 and len(csv_lines) == 9 and len(set(manifest["teacher_checksums"])) == 1
    _report(6, "ablation-harness", rows_ok and shared_ok and bitwise_ok and cli_ok,
            f"(rows {len(report.rows)}, shared teacher {shared_ok}, "
            f"all-false bitwise {bitwise_ok}, cli {cli_ok})")


def test_criterion_07_semi_supervised_invariants():
    bundle = synth_dataset(0, (8, 8, 1), 3, n_per_class=60, noise=0.05)
    semi = split_semisup(bundle, 0.2, seed=1)
    n_labeled, n_pool = len(semi.train_x), semi.n_unlabeled
    teacher = build_prior((8, 8, 1), (3, 3, 1), 3, width=8, seed=0)
    cfg = TrainConfig(epochs=20, lr_switch_epochs=(12, 16), batch_size=16, seed=0,
                      confidence_threshold=0.7, epochs_per_round=40)
    result = train_prior_semisup(teacher, semi, cfg)
    rounds = result.info["rounds"]
    within_cap = len(rounds) <= cfg.self_label_round_cap and not result.info.get("capped")
    conserved = all(r["labeled"] + r["pool"] == n_labeled + n_pool for r in rounds)
    monotone = [r["labeled"] for r in rounds] == sorted(r["labeled"] for r in rounds)
    grew = result.info["final_labeled"] > n_labeled

    # degenerate pool: the semi-supervised transfer collapses onto the
    # supervised one with identical loss traces
    dcfg = TrainConfig(epochs=3, lr_switch_epochs=(), lr_values=(1e-3,),
                       batch_size=16, seed=7)
    small = synth_dataset(3, (8, 8, 1), 3, n_per_class=20, noise=0.04)
    helper = build_prior((8, 8, 1), (3, 3, 1), 3, width=4, seed=1)
    train_prior_supervised(helper, small, dcfg)
    a = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="nonlinear", width=4, seed=2)
    ra = train_mclwp_semisup(a, helper, small, dcfg, StageMask())
    b = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="nonlinear", width=4, seed=2)
    rb = train_mclwp(b, helper, small, dcfg, StageMask())
    degenerate_ok = all(ra.stages[n].rows == rb.stages[n].rows for n in ra.stages) and all(
        np.array_equal(pa.value, pb.value)
        for pa, pb in zip(a.all_params(), b.all_params())
    )
    _report(7, "semi-supervised-invariants",
            within_cap and conserved and monotone and grew and degenerate_ok,
            f"(rounds {len(rounds)}, labeled {n_labeled}->{result.info['final_labeled']}, "
            f"degenerate {degenerate_ok})")


def test_criterion_08_knn_oracle():
    def brute_force(z_train, train_y, z_test, k, n_classes):
        preds = []
        for i in range(len(z_test)):
            d = [(float(np.sum((z_test[i] - z_train[j]) ** 2)), j)
                 for j in range(len(z_train))]
            d.sort()
            votes = np.zeros(n_classes, dtype=int)
            for _, j in d[:k]:
                votes[train_y[j]] += 1
            preds.append(int(votes.argmax()))
        return np.asarray(preds)

    ok = True
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        model = build_mcl((6, 6, 1), (3, 2, 1), 4, seed=seed)
        train_x = rng.random(size=(200, 6, 6, 1)).astype(np.float32)
        train_y = rng.integers(0, 4, size=200)
        test_x = rng.random(size=(60, 6, 6, 1)).astype(np.float32)
        test_y = rng.integers(0, 4, size=60)
        z_train = model.measurements(train_x).reshape(200, -1).astype(np.float64)
        z_test = model.measurements(test_x).reshape(60, -1).astype(np.float64)
        for k in (1, 5, 20):
            oracle = float(np.mean(
                brute_force(z_train, train_y, z_test, k, 4) == test_y))
            got = knn_compressive(model, train_x, train_y, test_x, test_y, k=k)
            ok = ok and (got == oracle)
    _report(8, "knn-oracle", ok, "(k in {1,5,20}, 5 seeds, exact match)")


def test_criterion_09_determinism(tmp_path):
    from mclkit import save_dataset

    bundle = synth_dataset(4, (8, 8, 1), 3, n_per_class=20, noise=0.04)
    data_dir = tmp_path / "data"
    save_dataset(bundle, data_dir)
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("epochs=3\nlr_values=1e-3\nlr_switch_epochs=\n"
                        "batch_size=16\nwidth=4\n")
    teacher_out = tmp_path / "teacher"
    assert main(["train-prior", "--dataset", str(data_dir), "--config", str(cfg_file),
                 "--measurement", "3x3x1", "--seed", "2",
                 "--out", str(teacher_out)]) == 0
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["train-student", "--method", "mclwp", "--mask", "111",
                     "--dataset", str(data_dir), "--config", str(cfg_file),
                     "--measurement", "3x3x1", "--seed", "2",
                     "--teacher", str(teacher_out / "checkpoint.mclk"),
                     "--out", str(out)]) == 0
        outs.append(out)
    same_ckpt = (outs[0] / "checkpoint.mclk").read_bytes() == \
        (outs[1] / "checkpoint.mclk").read_bytes()
    same_csv = (outs[0] / "history.csv").read_bytes() == \
        (outs[1] / "history.csv").read_bytes()
    _report(9, "determinism", same_ckpt and same_csv,
            f"(checkpoint {same_ckpt}, history {same_csv})")


def test_criterion_10_max_norm_and_schedule():
    bundle = synth_dataset(5, (8, 8, 1), 3, n_per_class=30, noise=0.05)
    cfg = TrainConfig.full_schedule(batch_size=32, seed=0)
    model = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="nonlinear", width=4, seed=0)
    objective = SupervisedObjective([model.sensing, model.synthesis, model.head])
    worst = []

    def check(epoch, obj):
        for s in obj.trainable:
            for p in s.params:
                if p.norm_axes is not None:
                    norms = np.sqrt((p.value.astype(np.float64) ** 2).sum(axis=p.norm_axes))
                    worst.append(float(norms.max()))

    history = train(objective, bundle.train_x, bundle.train_y,
                    bundle.val_x, bundle.val_y, cfg, epoch_end=check)
    norm_ok = max(worst) <= 6.0 + 1e-5
    lrs = history.lr_sequence()
    schedule_ok = (len(lrs) == 160 and lrs[:80] == [1e-3] * 80
                   and lrs[80:120] == [1e-4] * 40 and lrs[120:] == [1e-5] * 40)
    _report(10, "max-norm-and-schedule", norm_ok and schedule_ok,
            f"(max constrained norm {max(worst):.3f}, schedule {schedule_ok})")
