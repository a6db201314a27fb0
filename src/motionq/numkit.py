"""Shared numeric primitives: activations, deterministic RNG, named parameter
storage with gradient slots, and a finite-difference gradient checker.

Vectors are 1-D numpy arrays and matrices 2-D; no wrapper types. A batch of
vectors is a 2-D array with one vector per row. Tests run everything in
float64 (central differences are unusable at float32); training may opt into
float32 through the ParamStore dtype.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "check_finite",
    "sigmoid",
    "relu",
    "cosine_sim",
    "cosine_sim_grad",
    "Rng",
    "ParamStore",
    "grad_check",
]

COSINE_EPS = 1e-12
# grad_check's error floor, in units of the central difference's rounding
# noise, float64 machine epsilon * |loss| / eps (set from check_full's spread)
FD_NOISE_UNITS = 4e4


def check_finite(arr, name="array"):
    """Raise ValueError if arr holds NaN or Inf; return arr unchanged."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def sigmoid(x):
    """Numerically stable logistic function, 1 / (1 + exp(-x))."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))  # argument always <= 0, no overflow
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def relu(x):
    return np.maximum(x, 0.0)


def cosine_sim(a, b, eps=COSINE_EPS):
    """Cosine similarity of two equal-length vectors, clamped to [-1, 1].

    If either vector has norm below eps the result is defined as 0.0 (hidden
    features are exactly zero at initialization, so this case is reachable).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"cosine_sim expects equal-length vectors, got {a.shape} and {b.shape}")
    c = cosine_sim_grad(a[None], b[None], eps)[0][0]
    return float(min(1.0, max(-1.0, c)))


def cosine_sim_grad(a, b, eps=COSINE_EPS):
    """Row-wise cosine similarity plus its gradients w.r.t. both rows.

    a and b are (k, h); returns (cos, d_cos/d_a, d_cos/d_b) of shapes (k,),
    (k, h) and (k, h), unclamped. A row pair with a norm below eps has cos 0
    and zero gradients, the constant-0 branch of cosine_sim.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"cosine_sim_grad expects equal-shape (k, h) rows, "
                         f"got {a.shape} and {b.shape}")
    na = np.sqrt((a * a).sum(axis=1))
    nb = np.sqrt((b * b).sum(axis=1))
    dead = (na < eps) | (nb < eps)
    na[dead] = nb[dead] = 1.0  # placeholders: dead rows are zeroed below
    c = (a * b).sum(axis=1) / (na * nb)
    c[dead] = 0.0
    da = b / (na * nb)[:, None] - c[:, None] * a / (na * na)[:, None]
    db = a / (na * nb)[:, None] - c[:, None] * b / (nb * nb)[:, None]
    da[dead] = db[dead] = 0.0
    return c, da, db


class Rng:
    """Seed-deterministic random stream.

    Fixed algorithm: a numpy PCG64 bit generator seeded with the integer seed,
    drawn through numpy.random.Generator (normals use the ziggurat method).
    The same seed yields the same stream on every platform; the test suite
    pins the seed-42 stream against a committed golden vector.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def shuffle(self, x):
        self._gen.shuffle(x)

    @property
    def state(self):
        """The PCG64 bit generator's state; assigning one resumes the stream there."""
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value):
        self._gen.bit_generator.state = value

    def __repr__(self):
        return f"Rng(seed={self.seed})"


class ParamStore:
    """Named tensors, each with a value slot and a same-shape gradient slot.

    Names are unique and whitespace-free. Values are registered once and then
    only mutated in place (optimizer steps, checkpoint loads, finite-difference
    perturbations), so modules may safely hold direct references to the arrays.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name, value):
        if name in self._values:
            raise ValueError(f"duplicate parameter name: {name}")
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"parameter names must be non-empty and whitespace-free: {name!r}")
        value = np.array(value, dtype=self.dtype)
        check_finite(value, name)
        self._values[name] = value
        self._grads[name] = np.zeros_like(value)
        return value

    def value(self, name):
        return self._values[name]

    def grad(self, name):
        return self._grads[name]

    def names(self):
        return list(self._values.keys())

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0.0

    def scale_grads(self, factor):
        for g in self._grads.values():
            g *= factor

    def first_nonfinite_grad(self):
        """Name of the first parameter with a non-finite gradient, or None."""
        for name, g in self._grads.items():
            if not np.all(np.isfinite(g)):
                return name
        return None

    def copy_values(self):
        return {name: v.copy() for name, v in self._values.items()}

    def load_values(self, mapping):
        """Assign values in place; names and shapes must match exactly."""
        if set(mapping) != set(self._values):
            missing = set(self._values) - set(mapping)
            extra = set(mapping) - set(self._values)
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in mapping.items():
            dst = self._values[name]
            arr = np.asarray(arr)
            if arr.shape != dst.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {dst.shape}")
            dst[...] = arr


# dtype name in a block header -> the little-endian dtype of its payload
TENSOR_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def write_tensors(fh, mapping):
    """Serialize name -> array to a binary block in a file opened for bytes.

    Layout: a header line ``tensors <count>``, then per tensor one line
    ``tensor <name> <dtype> <ndim> <dim0> <dim1> ...`` followed directly by
    the row-major payload as raw little-endian bytes (bit-exact round trip).
    """
    fh.write(f"tensors {len(mapping)}\n".encode())
    for name, arr in mapping.items():
        arr = np.asarray(arr)
        if arr.dtype.name not in TENSOR_DTYPES:
            raise ValueError(f"tensor {name}: unsupported dtype {arr.dtype.name}")
        dims = " ".join(str(d) for d in arr.shape)
        fh.write(f"tensor {name} {arr.dtype.name} {arr.ndim} {dims}".rstrip().encode() + b"\n")
        fh.write(arr.astype(TENSOR_DTYPES[arr.dtype.name], copy=False).tobytes())


def read_tensors(fh):
    """Inverse of write_tensors; raises ValueError on a malformed block.

    fh must be seekable: each declared payload size is checked against the
    bytes left in the stream before anything is allocated for it.
    """
    start = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(start)
    head = fh.readline().split()
    if len(head) != 2 or head[0] != b"tensors" or not head[1].isdigit():
        raise ValueError("bad tensor block header")
    out = {}
    for _ in range(int(head[1])):
        parts = fh.readline().decode("ascii", "replace").split()
        dims = parts[4:]
        if (len(parts) < 4 or parts[0] != "tensor" or parts[3] != str(len(dims))
                or not all(d.isdigit() for d in dims)):
            raise ValueError("bad tensor header line")
        name, dtype = parts[1], TENSOR_DTYPES.get(parts[2])
        if dtype is None:
            raise ValueError(f"tensor {name}: unknown dtype {parts[2]!r}")
        shape = tuple(int(d) for d in dims)
        size = math.prod(shape) * dtype.itemsize
        if size > end - fh.tell():
            raise ValueError(f"tensor {name}: truncated payload")
        payload = bytearray(size)
        fh.readinto(payload)
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return out


def grad_check(f, store, eps=1e-5, f_value=None):
    """Compare analytic gradients against central finite differences.

    f(store) must return a scalar loss and fill the store's gradient slots
    (the store is zeroed before each call). f_value, when given, is a cheaper
    forward-only variant used for the perturbed evaluations. f must be
    deterministic: freeze any RNG it consumes.

    Returns the maximum relative error |a - n| / max(|a|, |n|, floor) over
    every parameter entry. A central difference of a loss L at step eps
    carries rounding noise of order machine-eps * |L| / eps, amplified by the
    length of the computation, and floor is FD_NOISE_UNITS times that unit:
    an entry whose gradient is below the noise is judged by its error against
    the floor, not against its own size.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps out of range [1e-7, 1e-3]: {eps}")
    if f_value is None:
        f_value = f
    store.zero_grads()
    base = float(f(store))
    if not np.isfinite(base):
        raise FloatingPointError("loss is non-finite at the evaluation point")
    floor = FD_NOISE_UNITS * np.finfo(np.float64).eps * abs(base) / eps
    analytic = {name: store.grad(name).copy() for name in store.names()}
    worst = 0.0
    for name in store.names():
        flat = store.value(name).reshape(-1)
        aflat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            fp = float(f_value(store))
            flat[idx] = keep - eps
            fm = float(f_value(store))
            flat[idx] = keep
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError(f"loss non-finite while perturbing {name}[{idx}]")
            numeric = (fp - fm) / (2.0 * eps)
            scale = max(abs(aflat[idx]), abs(numeric), floor)
            rel = abs(aflat[idx] - numeric) / scale if scale > 0.0 else 0.0
            if rel > worst:
                worst = rel
    return worst
