"""AdamW optimizer, batch construction, the few-shot training loop, and the
seeded instances of the gradient check."""

import csv
import hashlib
import io
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import EmptyTrainingSet, InvalidConfig, NumericError, ShapeMismatch
from .model import (Checkpoint, FeatureBank, flat_arrays, flat_buffer, init_model,
                    live_from_v1, param_layout, v1_layout)
from .numerics import as_f64, philox
from .objectives import Batch, _validate_cfg, backward, fd_well_conditioned, zero_gradients


@dataclass
class TrainConfig:
    lambda1: float = 0.3
    lambda2: float = 100.0
    lr: float = 1e-5
    epochs: int = 3
    batch_size: int = 32
    tau_loss: float = 0.01
    seed: int = 0
    kr_variant: str = "feature"
    kr_scope: str = "both"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-2

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise InvalidConfig(f"{f.name} must be finite, got {getattr(self, f.name)}")
        # AdamW's bias correction divides by 0 at beta 1, and a zero gradient by 0 at adam_eps 0
        for name, ok, rule in (("lr", self.lr > 0, "> 0"), ("epochs", self.epochs >= 1, ">= 1"),
                               ("batch_size", self.batch_size >= 1, ">= 1"),
                               ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                               ("adam_eps", self.adam_eps > 0, "> 0"),
                               ("weight_decay", self.weight_decay >= 0, ">= 0")):
            if not ok:
                raise InvalidConfig(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InvalidConfig("lambda weights must be >= 0")
        _validate_cfg(self)


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0
    # decoupled decay pulls each array toward this value; keys not here decay to 0
    rest: dict = field(default_factory=dict)


def init_optimizer(state):
    """Zero moments per live array, laid out like the gradients; decay targets are the
    arrays' identity values."""
    return OptimizerState(
        m=zero_gradients(state),
        v=zero_gradients(state),
        step=0,
        rest={k: ident for k, _, ident in param_layout(state.mode, state.dim, state.hidden)
              if ident},
    )


def adamw_step(params, grads, opt, cfg):
    """One AdamW update with bias correction and decoupled weight decay: one pass over
    flat buffers of all the arrays, with the bits of an update array by array."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for key, p in params.items():
        if grads[key].shape != p.shape:
            raise ShapeMismatch(f"gradient shape mismatch for {key}")
    p, m, v, g = (flat_buffer(arrays, params) for arrays in (params, opt.m, opt.v, grads))
    rest = np.repeat([opt.rest.get(k, 0.0) for k in params], [a.size for a in params.values()])
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    m_hat = m / bc1
    v_hat = v / bc2
    p -= cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * (p - rest))
    for arrays, flat in ((params, p), (opt.m, m), (opt.v, v)):
        if flat is not arrays[next(iter(params))].base:  # a copy: write it back
            for k, part in flat_arrays(params, flat).items():
                arrays[k][...] = part


def make_batches(train, batch_size, seed, epoch=0):
    """Shuffled batches of ceil(bs/2) positives and floor(bs/2) negatives.

    Sampling is without replacement within the epoch; the last partial batch
    is kept. If one side of the training set is empty, batches consist of
    the other side only.
    """
    if train.n_pos == 0 and train.n_neg == 0:
        raise EmptyTrainingSet("training set is empty")
    both = train.n_pos > 0 and train.n_neg > 0
    if both and batch_size < 2:
        raise InvalidConfig("batch_size must be >= 2 with both sample kinds present")
    rng = philox(seed, epoch)
    pos_order, neg_order = rng.permutation(train.n_pos), rng.permutation(train.n_neg)
    pos_per, neg_per = ((batch_size + 1) // 2, batch_size // 2) if both else (batch_size,) * 2
    n_batches = max(-(-train.n_pos // pos_per), -(-train.n_neg // neg_per))
    pos = [pos_order[b * pos_per : (b + 1) * pos_per] for b in range(n_batches)]
    neg = [neg_order[b * neg_per : (b + 1) * neg_per] for b in range(n_batches)]
    return [Batch(pos_features=train.pos_features[pi], pos_labels=train.pos_labels[pi],
                  neg_features=train.neg_features[ni]) for pi, ni in zip(pos, neg)]


@dataclass
class LossTrace:
    records: list = field(default_factory=list)  # (epoch, step, LossReport)

    def append(self, epoch, step, report):
        self.records.append((epoch, step, report))

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["epoch", "step", "l_pos", "l_neg", "l_kr", "total"])
        for epoch, step, r in self.records:
            w.writerow([epoch, step,
                        repr(r.l_pos), repr(r.l_neg), repr(r.l_kr), repr(r.total)])
        return buf.getvalue()

    def save_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.to_csv())

    def digest(self):
        return hashlib.sha256(self.to_csv().encode("utf-8")).hexdigest()

    def epoch_mean_totals(self):
        by_epoch = {}
        for epoch, _, r in self.records:
            by_epoch.setdefault(epoch, []).append(r.total)
        return {e: float(np.mean(vs)) for e, vs in sorted(by_epoch.items())}


# the L2 norm of all live parameters past which a run has run away (README, Training step)
_RUNAWAY_NORM = 1e6


def train(state, bank, train_set, cfg):
    """Run the full training loop in place; returns (Checkpoint, LossTrace)."""
    as_f64(flat_buffer(state.arrays, state.arrays))  # NaN/Inf parameters
    opt = init_optimizer(state)
    params = state.params()
    trace = LossTrace()
    step = 0
    # a diverging run overflows; the checks below report it instead
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            for batch in make_batches(train_set, cfg.batch_size, cfg.seed, epoch):
                report, grads = backward(state, bank, batch, cfg)
                adamw_step(params, grads, opt, cfg)
                norm = np.linalg.norm(flat_buffer(params, params))
                if not (math.isfinite(report.total) and norm <= _RUNAWAY_NORM):
                    raise NumericError(f"training diverged at epoch {epoch} step {step}: total "
                                       f"loss {report.total}, parameter norm {norm:.3g}")
                trace.append(epoch, step, report)
                step += 1
    ckpt = Checkpoint(
        model=state,
        config=asdict(cfg),
        meta={"seed": cfg.seed, "trace_digest": trace.digest(), "steps": step},
    )
    return ckpt, trace


def _unit_rows(rng, n, d):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def gradcheck_instance(mode, kr_variant, base_seed):
    """A random gradient-check instance that the fd oracle can resolve.

    D=16, hidden 8, N=5, M=7, a batch of 4 positives and 4 negatives, and the
    parameters moved 0.2 N(0, 1) off the initialization so that every path is
    exercised. tau_loss 0.25 and lambda2 0.5 keep the loss surface smooth
    enough for central differences at eps=1e-5. Attempt a draws from
    np.random.default_rng(base_seed * 1000 + a), for up to 50 attempts, until
    fd_well_conditioned accepts the instance. The perturbation is drawn over
    the 16 arrays of the v1 checkpoint layout, whatever the mode, and each
    live array takes its part, so that every mode draws the same batch.

    Returns (state, bank, batch, cfg, analytic gradients).
    """
    cfg = TrainConfig(kr_variant=kr_variant, lambda1=0.3, lambda2=0.5, tau_loss=0.25)
    d, hidden = 16, 8
    for attempt in range(50):
        seed = base_seed * 1000 + attempt
        rng = np.random.default_rng(seed)
        bank = FeatureBank.from_rows(_unit_rows(rng, 5, d), _unit_rows(rng, 7, d))
        state = init_model(d, hidden=hidden, mode=mode, seed=seed)
        noise = {key: 0.2 * rng.standard_normal(shape) for key, shape, _ in v1_layout(d, hidden)}
        for key, part in live_from_v1(mode, d, hidden, noise).items():
            state.arrays[key] += part
        batch = Batch(pos_features=_unit_rows(rng, 4, d),
                      pos_labels=rng.integers(0, 5, size=4),
                      neg_features=_unit_rows(rng, 4, d))
        _, grads = backward(state, bank, batch, cfg)
        if fd_well_conditioned(state, bank, batch, grads):
            return state, bank, batch, cfg, grads
    raise NumericError(f"no gradient-check instance for {mode}/{kr_variant} at "
                       f"seed {base_seed} is resolvable by the fd oracle")
