"""Per-array reference for `trainer.adamw_step`.

It updates one array at a time. The library's update runs once over flat buffers
of all the arrays with the same elementwise arithmetic, so the tests require equal
bits.
"""

import numpy as np


def adamw_step(params, grads, opt, cfg):
    """One AdamW update with bias correction and decoupled weight decay."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for key, p in params.items():
        g = grads[key]
        m = opt.m[key]
        v = opt.v[key]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        rest = opt.rest.get(key, 0.0)
        p -= cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
                       + cfg.weight_decay * (p - rest))
