"""Benchmark function registry for 2-d and 3-d experiments."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TestFunction:
    """Closed-form target with a display formula; evaluators take point
    stacks of shape (..., d)."""

    fid: str
    d: int
    formula: str
    fn: object

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (self.d,):
            raise ValueError(f"expected last axis of size {self.d}")
        return self.fn(*(pts[..., i] for i in range(self.d)))


_FUNCS_2D = [
    ("f1", "(1+2x+3y)/6", lambda x, y: (1 + 2 * x + 3 * y) / 6),
    ("f2", "(x^2+y^2)/2", lambda x, y: (x ** 2 + y ** 2) / 2),
    ("f3", "xy", lambda x, y: x * y),
    ("f4", "(x^3+y^3)/2", lambda x, y: (x ** 3 + y ** 3) / 2),
    ("f5", "1/(1+x^2+y^2)", lambda x, y: 1 / (1 + x ** 2 + y ** 2)),
    ("f6", "cos(1/(1+xy))", lambda x, y: np.cos(1 / (1 + x * y))),
    ("f7", "sin(2pi(x+y))", lambda x, y: np.sin(2 * np.pi * (x + y))),
    ("f8", "sin(pi x)sin(pi y)",
     lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)),
    ("f9", "exp(-x^2-y^2)", lambda x, y: np.exp(-x ** 2 - y ** 2)),
    ("f10", "max(x-0.5,0)max(y-0.5,0)",
     lambda x, y: np.maximum(x - 0.5, 0) * np.maximum(y - 0.5, 0)),
]

_FUNCS_3D = [
    ("f1", "(1+2x+3y+4z)/10",
     lambda x, y, z: (1 + 2 * x + 3 * y + 4 * z) / 10),
    ("f2", "(x^2+y^2+z^2)/3",
     lambda x, y, z: (x ** 2 + y ** 2 + z ** 2) / 3),
    ("f3", "(xy+yz+zx)/3", lambda x, y, z: (x * y + y * z + z * x) / 3),
    ("f4", "(x^3y^3+y^3z^3)/2",
     lambda x, y, z: (x ** 3 * y ** 3 + y ** 3 * z ** 3) / 2),
    ("f5", "(x+y+z)/(1+x^2+y^2+z^2)",
     lambda x, y, z: (x + y + z) / (1 + x ** 2 + y ** 2 + z ** 2)),
    ("f6", "cos(1/(1+xyz))", lambda x, y, z: np.cos(1 / (1 + x * y * z))),
    ("f7", "sin(2pi(x+y+z))",
     lambda x, y, z: np.sin(2 * np.pi * (x + y + z))),
    ("f8", "sin(pi x)sin(pi y)sin(pi z)",
     lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y)
     * np.sin(np.pi * z)),
    ("f9", "exp(-x^2-y^2-z^2)",
     lambda x, y, z: np.exp(-x ** 2 - y ** 2 - z ** 2)),
    ("f10", "max(x-0.5,0)max(y-0.5,0)max(z-0.5,0)",
     lambda x, y, z: (np.maximum(x - 0.5, 0) * np.maximum(y - 0.5, 0)
                      * np.maximum(z - 0.5, 0))),
]


def registry(d):
    """All benchmark functions of the given dimension, in f1..f10 order."""
    if d == 2:
        rows = _FUNCS_2D
    elif d == 3:
        rows = _FUNCS_3D
    else:
        raise ValueError(f"no benchmark functions registered for d={d}")
    return [TestFunction(fid=fid, d=d, formula=formula, fn=fn)
            for fid, formula, fn in rows]


def get(d, fid):
    for f in registry(d):
        if f.fid == fid:
            return f
    raise KeyError(f"unknown function id {fid!r} for d={d}")
