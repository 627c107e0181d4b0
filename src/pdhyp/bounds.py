"""Ledger of empirically measured estimate constants."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoundEntry:
    label: str
    ratio: float
    params: dict


@dataclass
class BoundLedger:
    entries: list = field(default_factory=list)

    def record(self, label, ratio, **params):
        self.entries.append(BoundEntry(label, float(ratio), dict(params)))
        return ratio

    def ratios(self, label):
        return [e.ratio for e in self.entries if e.label == label]

    def max_ratio(self, label):
        vals = self.ratios(label)
        return max(vals) if vals else 0.0
