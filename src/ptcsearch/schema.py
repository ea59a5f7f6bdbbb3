"""Input rules: what a valid value is, for every document the CLI reads and
every dataclass a library caller builds.

A rule is a function ``rule(value, path="")`` that returns the value, checked
and converted, or raises one ConfigError naming the field by its dotted path,
e.g. ``unitaries.u[0].dc.offset``. Checks that relate two fields (a window's
order, a block's mask length) stay with the code that owns both.
"""
import math
import numbers

import numpy as np

from .errors import ConfigError

NETLIST_VERSION = 1


def _fail(path, need, value):
    raise ConfigError(f"{path} must be {need}, got {repr(value):.80}".lstrip())


def _bounded(value, path, gt=None, ge=None, lt=None, le=None):
    if gt is not None and not value > gt:
        _fail(path, "positive" if gt == 0 else f"> {gt}", value)
    if ge is not None and not value >= ge:
        _fail(path, "nonnegative" if ge == 0 else f">= {ge}", value)
    if lt is not None and not value < lt:
        _fail(path, f"< {lt}", value)
    if le is not None and not value <= le:
        _fail(path, f"<= {le}", value)
    return value


def integer(ge=None, le=None):
    """An int in [ge, le]: not a bool, nor a float such as 8.0 or 8.5."""
    def rule(value, path=""):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            _fail(path, "an integer", value)
        return _bounded(int(value), path, ge=ge, le=le)
    return rule


def real(gt=None, ge=None, lt=None):
    """A finite float. Text that float() reads counts, since PyYAML reads
    1e-3 (no decimal point) as a string; a bool does not."""
    def rule(value, path=""):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if isinstance(value, bool) or not math.isfinite(number):
            _fail(path, "a finite number", value)
        return _bounded(number, path, gt, ge, lt)
    return rule


def text(value, path=""):
    if not (isinstance(value, str) and value):
        _fail(path, "a nonempty string", value)
    return value


def choice(*options):
    """One of options, of the same type too (True is not 1)."""
    def rule(value, path=""):
        if not any(type(value) is type(o) and value == o for o in options):
            _fail(path, "one of " + ", ".join(map(repr, options)), value)
        return value
    return rule


def maybe(rule):
    return lambda value, path="": None if value is None else rule(value, path)


def list_of(rule):
    def check(value, path=""):
        if not isinstance(value, list):
            _fail(path, "a list", value)
        return [rule(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return check


def array(kind, values=None):
    """A list of numbers, possibly nested, as one numpy array: "integer" or
    "real" (finite, as floats), drawn from values if given. Each condition is
    one call over the whole list, not a rule call per item; the caller checks
    the shape."""
    kinds = "iu" if kind == "integer" else "iuf"
    need = ("a list of integers" if kind == "integer" else "a list of finite numbers") \
        + ("" if values is None else f" in {sorted(values)}")

    def rule(value, path=""):
        try:
            arr = np.asarray(value) if isinstance(value, list) else None
        except ValueError:   # a ragged list
            arr = None
        if arr is None or arr.size and arr.dtype.kind not in kinds \
                or values is not None and not values.issuperset(arr.ravel().tolist()) \
                or kind == "real" and not np.isfinite(arr).all():
            _fail(path, need, value)
        return arr.astype(float, copy=False) if kind == "real" else arr
    return rule


def mapping(rules, optional=()):
    """A dict of the keys of rules, each checked by its rule. Keys not in
    optional are required; an absent optional key stays absent, so the
    default of the code that reads the dict applies."""
    def rule(value, path=""):
        if not isinstance(value, dict):
            _fail(path, "a mapping", value)
        checked = {}
        for key in {**rules, **value}:
            where = f"{path}.{key}" if path else str(key)
            if key not in rules:
                raise ConfigError(f"{where} is not a known field")
            if key in value:
                checked[key] = rules[key](value[key], where)
            elif key not in optional:
                raise ConfigError(f"{where} is missing")
        return checked
    return rule


def check_fields(obj, rules):
    """Check and convert, in place, the fields of a (frozen) dataclass."""
    for name, rule in rules.items():
        object.__setattr__(obj, name, rule(getattr(obj, name), name))


def present(checked, rules):
    """The entries of a checked document that rules names."""
    return {key: checked[key] for key in rules if key in checked}


# dataclass fields: each __post_init__ checks its own with check_fields
POSITIVE = real(gt=0)
NONNEGATIVE = real(ge=0)
COUNT = integer(ge=0)
PDK = {"name": text, "f_ps": POSITIVE, "f_dc": POSITIVE, "f_cr": POSITIVE}
WINDOW = {"f_min": POSITIVE, "f_max": POSITIVE, "margin": NONNEGATIVE}
PENALTY = {"beta": NONNEGATIVE, "beta_cr": NONNEGATIVE}
# one K x K complex matrix at K = 2**16 takes 64 GiB, so no larger K can run;
# the bound also keeps K's area terms inside the float range
MAX_K = 2 ** 16
SEARCH = {"k": integer(ge=2, le=MAX_K), "rho0": maybe(POSITIVE)}
SCHEDULE = {
    "warmup_epochs": COUNT, "spl_epoch": COUNT, "total_epochs": COUNT,
    "steps_per_epoch": integer(ge=1), "weight_arch_ratio": COUNT,
    "tau_start": POSITIVE, "tau_end": POSITIVE, "lr": POSITIVE,
    "arch_lr": POSITIVE, "weight_decay": NONNEGATIVE,
    "arch_weight_decay": NONNEGATIVE,
}

# documents (README "Input documents")
TASK_FIELDS = {
    "kind": choice("matrix_fit", "classify"), "target": choice("random_unitary"),
    "path": text, "format": choice("csv", "idx"), "split": real(gt=0, lt=1),
    "split_seed": COUNT, "labels_path": text,
}
TASK = mapping(TASK_FIELDS, optional=TASK_FIELDS)
RUN_CONFIG = mapping(
    {**SEARCH, "pdk": text, **WINDOW, **PENALTY,
     "schedule": mapping(SCHEDULE, optional=SCHEDULE), "task": TASK},
    optional=("rho0", "margin", "beta", "beta_cr", "schedule", "task"))
PDK_DOC = mapping(PDK)


def pdk_source(value, path=""):
    """A builtin PDK name or a PDK file path, or a PDK document inline."""
    return PDK_DOC(value, path) if isinstance(value, dict) else text(value, path)


BLOCK = mapping({
    "ps": array("real"),
    "dc": mapping({"mask": array("integer", values={0, 1}), "offset": choice(0, 1)}),
    "cr": array("integer"),
})
NETLIST = mapping({
    "version": choice(NETLIST_VERSION), "k": SEARCH["k"], "pdk": pdk_source,
    "unitaries": mapping({"u": list_of(BLOCK), "v": list_of(BLOCK)}),
    "footprint": mapping({"n_blocks": COUNT, "n_dc": COUNT, "n_cr": COUNT,
                          "area_um2": NONNEGATIVE}),
    "provenance": lambda value, path="": value,   # free-form, echoed by report
}, optional=("provenance",))
CHECKPOINT = mapping({"k": SEARCH["k"], "p_raw": array("real")})
