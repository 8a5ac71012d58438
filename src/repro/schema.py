"""The versioned report schemas: one field checker and one registry.

Every ``validate_*`` function checks its report with :func:`need`, and
:data:`VALIDATORS` maps each schema name to its validator.  The table
names validators by module path, so reading it imports nothing;
:func:`validator` loads one on first use.
"""

from __future__ import annotations

from importlib import import_module

#: Schema name -> ``"module:function"`` of its validator.
VALIDATORS = {
    "zeus.metrics/1": "repro.obs.export:validate_report",
    "zeus.trace/1": "repro.obs.export:validate_trace_report",
    "zeus.proof/1": "repro.formal.report:validate_proof_report",
    "zeus.lint/1": "repro.lint.report:validate_lint_report",
    "zeus.timing/1": "repro.timing.report:validate_timing_report",
    "zeus.interchange/1": "repro.interchange.manifest:validate_manifest",
    "chrome-trace": "repro.obs.chrometrace:validate_chrome_trace",
}


def validator(schema: str):
    """The validator registered for *schema* (``KeyError`` if none)."""
    module, _, name = VALIDATORS[schema].partition(":")
    return getattr(import_module(module), name)


#: The counts every report's design block carries.
DESIGN_COUNTS = ("nets", "gates", "connections", "registers")


def design_block(name: str, stats: dict) -> dict:
    """A report's design block: the name plus the netlist counts."""
    return {"name": name, **{key: stats.get(key, 0) for key in DESIGN_COUNTS}}


def need_design(need, design: dict, where: str) -> None:
    """Check a design block with a validator's bound :func:`need`."""
    need(design, "name", str, where)
    for key in DESIGN_COUNTS:
        need(design, key, int, where)


def need_counts(need, obj: dict, key: str, where: str) -> None:
    """Check that ``obj[key]`` maps names to int counts."""
    for name, count in need(obj, key, dict, where).items():
        if not isinstance(count, int):
            raise ValueError(
                f"{need.args[0]}: {where}.{key}[{name!r}] must be int")


def need(label: str, obj: dict, key: str, types, where: str):
    """``obj[key]``, which must exist and be an instance of *types*;
    otherwise ``ValueError("<label>: ...")`` naming ``where.key``.
    Validators bind *label* with ``functools.partial``."""
    if key not in obj:
        raise ValueError(f"{label}: missing {where}.{key}")
    if not isinstance(obj[key], types):
        raise ValueError(
            f"{label}: {where}.{key} must be {types}, "
            f"got {type(obj[key]).__name__}")
    return obj[key]
