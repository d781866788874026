"""Parameter containers, weight init, and the single-file checkpoint format.

Checkpoint layout: one UTF-8 JSON line (a list of {name, shape, byte_offset}
entries, offsets relative to the end of that line), then the concatenated
little-endian float32 parameter blobs.
"""

import json
import math
from pathlib import Path

import numpy as np

from . import ops
from .errors import ConfigError, DataError, ShapeError
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable leaf tensor."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class registering parameters and submodules in attribute order."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        """Yield (dotted_name, parameter) pairs in stable registration order."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True):
        object.__setattr__(self, "_training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self):
        return self.train(False)

    @property
    def training(self) -> bool:
        return self._training

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def astype(self, dtype):
        """Convert all parameters in place (float64 for gradient checking)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        return self

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict):
        for name, p in self.named_parameters():
            if name not in state:
                raise ConfigError(f"state dict is missing parameter '{name}'")
            arr = np.asarray(state[name])
            if tuple(arr.shape) != tuple(p.shape):
                raise ShapeError(f"parameter '{name}' expects shape {tuple(p.shape)}, got {tuple(arr.shape)}")
            p.data = arr.astype(p.data.dtype)
        return self


class ModuleList(Module):
    """Sequence of submodules registered under their indices."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for mod in modules:
            self.append(mod)

    def append(self, mod: Module):
        self._modules[str(len(self._items))] = mod
        self._items.append(mod)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> Parameter:
    """Kaiming-uniform init, fan-in mode with ReLU gain."""
    bound = np.sqrt(6.0 / fan_in)
    return Parameter(rng.uniform(-bound, bound, size=shape).astype(np.float32))


def conv2d_weight(rng: np.random.Generator, c_out: int, c_in_per_group: int, k: int) -> Parameter:
    return kaiming_uniform(rng, (c_out, c_in_per_group, k, k), fan_in=c_in_per_group * k * k)


def conv1d_weight(rng: np.random.Generator, c_out: int, c_in: int, k: int) -> Parameter:
    return kaiming_uniform(rng, (c_out, c_in, k), fan_in=c_in * k)


def linear_weight(rng: np.random.Generator, m: int, n: int) -> Parameter:
    return kaiming_uniform(rng, (m, n), fan_in=n)


def zeros_param(shape) -> Parameter:
    return Parameter(np.zeros(shape, dtype=np.float32))


class Conv2d(Module):
    """Bias-free stride-1 2-D convolution layer."""

    def __init__(self, rng, c_in: int, c_out: int, k: int,
                 padding: int = 0, dilation: int = 1, groups: int = 1):
        super().__init__()
        self.padding, self.dilation, self.groups = padding, dilation, groups
        self.weight = conv2d_weight(rng, c_out, c_in // groups, k)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, padding=self.padding, dilation=self.dilation,
                          groups=self.groups)


class Conv1d(Module):
    """Bias-free 1-D convolution layer over a time-major [L, C_in] sequence, window = stride = k."""

    def __init__(self, rng, c_in: int, c_out: int, k: int):
        super().__init__()
        self.weight = conv1d_weight(rng, c_out, c_in, k)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.weight)


class Linear(Module):
    def __init__(self, rng, n_in: int, n_out: int, bias: bool = True):
        super().__init__()
        self.weight = linear_weight(rng, n_out, n_in)
        if bias:
            self.bias = zeros_param((n_out,))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


def save_checkpoint(path, module: Module):
    """Write all parameters to one file: JSON header line + float32 blobs."""
    entries = []
    blobs = []
    offset = 0
    for name, p in module.named_parameters():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(p.shape), "byte_offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps(entries, sort_keys=True).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path, module: Module):
    """Restore parameters saved by save_checkpoint into an existing module tree.

    An unreadable file, a header that is not a JSON entry list, an entry that
    runs past the end of the blob, and tensor names missing from or extra to
    the module all raise DataError.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    header, _, blob = raw.partition(b"\n")
    try:
        entries = json.loads(header.decode())
        layout = [(e["name"], tuple(int(n) for n in e["shape"]), int(e["byte_offset"])) for e in entries]
    except (UnicodeDecodeError, ValueError, TypeError, KeyError) as exc:
        raise DataError(f"checkpoint {path} has no valid JSON header") from exc
    state = {}
    for name, shape, offset in layout:
        count = math.prod(shape)
        if offset < 0 or min(shape, default=0) < 0 or offset + 4 * count > len(blob):
            raise DataError(f"checkpoint {path} is truncated: tensor '{name}' needs bytes "
                            f"{offset}-{offset + 4 * count}, the blob holds {len(blob)}")
        state[name] = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
    expected = [name for name, _ in module.named_parameters()]
    missing = [name for name in expected if name not in state]
    extra = sorted(set(state) - set(expected))
    if missing or extra:
        raise DataError(f"checkpoint {path} does not match the model: "
                        f"missing {_name_list(missing)}, extra {_name_list(extra)}")
    module.load_state_dict(state)
    return module


def _name_list(names, shown: int = 3) -> str:
    """A short one-line rendering of a list of tensor names."""
    if len(names) <= shown:
        return "[" + ", ".join(names) + "]"
    return "[" + ", ".join(names[:shown]) + f", and {len(names) - shown} more]"
