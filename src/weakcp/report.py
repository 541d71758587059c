"""Structured check reports.

Every verification routine in the engine returns a :class:`Report`: an
ordered list of labelled items, each either passed, failed with a concrete
counterexample, or marked not-applicable.  Reports are plain data so the
CLI can render them as text or JSON without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Witness:
    """A concrete coordinate where two composite morphisms disagree.

    ``basis_index`` is the multi-index of the input basis vector (one index
    per tensor factor of the domain), ``coordinate`` the multi-index of the
    output coordinate, and ``lhs``/``rhs`` the differing entries rendered
    as strings.
    """

    basis_index: tuple
    coordinate: tuple
    lhs: str
    rhs: str

    def to_json(self):
        return {
            "basis_index": list(self.basis_index),
            "coordinate": list(self.coordinate),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class ReportItem:
    """One labelled check: passed is True, False, or None (not applicable)."""

    label: str
    passed: bool | None
    witness: Witness | None = None
    note: str = ""

    def to_json(self):
        d = {"label": self.label, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness.to_json()
        if self.note:
            d["note"] = self.note
        return d

    def render(self) -> str:
        status = {True: "ok", False: "FAIL", None: "n/a"}[self.passed]
        line = f"{self.label}: {status}"
        if self.note:
            line += f" ({self.note})"
        if self.witness is not None:
            w = self.witness
            line += (
                f"  [at input {w.basis_index} output {w.coordinate}: "
                f"{w.lhs} != {w.rhs}]"
            )
        return line


@dataclass
class Report:
    """An ordered bundle of check results."""

    items: list = field(default_factory=list)

    def add(self, item: ReportItem):
        self.items.append(item)

    def extend(self, other: "Report"):
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        """True when no item failed (not-applicable items do not count)."""
        return all(item.passed is not False for item in self.items)

    def failed_labels(self):
        return [item.label for item in self.items if item.passed is False]

    def __getitem__(self, label: str) -> ReportItem:
        for item in self.items:
            if item.label == label:
                return item
        raise KeyError(label)

    def to_json(self):
        return {"ok": self.ok, "checks": [item.to_json() for item in self.items]}

    def render(self) -> str:
        return "\n".join(item.render() for item in self.items)


# The label registry: every label the engine can emit, in canonical order.
# CLI reports are sorted by this order so output is deterministic no matter
# how the checks were scheduled.
LABEL_ORDER = (
    # monoids
    "assoc", "unit-left", "unit-right",
    # quadruple axioms and the idempotent
    "wmeas-wcp", "twis-wcp", "cocy2-wcp", "idemp-sigma-inv", "idem-wcp",
    "nabla-left-linear",
    # derived identities of the crossed product
    "fi-nab", "c1", "aw", "c11", "aw1",
    # the product on A (x) V and its normalization
    "assoc-big", "normal-left", "normal-right", "otra-prop", "vieja-proof",
    # preunits
    "preunit", "pre1-wcp", "pre2-wcp", "pre3-wcp", "preunit-idemp",
    "nu-nabla",
    "product-assoc", "product-unit-left", "product-unit-right",
    "product-linear", "product-normal-left", "product-normal-right",
    "beta-eta", "beta-mult", "beta-linear", "beta-bar-mult", "beta-bar-unit",
    "fi-wcp",
    # iteration: link, twisting, combined sigma, combined preunit
    "falso-idemp", "falso-idemp2", "falso-idemp-link",
    "twisting-i", "twisting-ii", "sigma1", "sigma2", "sigma3",
    "pre-1", "pre-2", "iterated-preunit", "def-sigma", "product1",
    # the associativity isomorphism
    "new-it-1", "new-it-2", "new-it-3", "i-axv-mult", "i-axv-unit",
    "nabla-axvw-idem", "nabla-axvw-linear",
    "omega-right-inv", "omega-left-inv", "omega-compat",
    "outer-assoc", "outer-unit-left", "outer-unit-right",
    "omega-mult", "omega-unit", "rank-match",
    # wreaths, distributive laws, and the example checkers
    "W1", "W2", "W3", "W4", "W5", "W6",
    "DL1", "DL2", "DL3", "DL4", "idem=idem", "WDL1", "WDL2",
    "equ-idem", "new-nabla", "tech2", "tech3", "YB-Comp",
    "brz1", "brz2", "brz3", "DP1", "DP2", "DP3", "DP4",
    # kernel-level checks
    "split",
)

_LABEL_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}


def sort_by_registry(report: Report) -> Report:
    """A copy of the report ordered by the label registry.

    Labels absent from the registry sort after all registered ones,
    keeping their relative order; the sort is stable, so repeated labels
    stay in emission order.
    """
    n = len(LABEL_ORDER)
    return Report(sorted(
        report.items, key=lambda it: _LABEL_INDEX.get(it.label, n)
    ))


def _unflatten(index, dims):
    """Split a flat tensor index into per-factor indices (row-major)."""
    if not dims:
        return (index,) if index else ()
    out = []
    for d in reversed(dims):
        index, r = divmod(index, d)
        out.append(r)
    return tuple(reversed(out))
