"""The paper's closed-form performance bounds for the Section 8
implementation.

As analysed in Cristian–Schmuck and quoted at the end of Section 8, the
token-ring protocol implements VS(b, d, Q) for any processor set Q with

    b = 9δ + max{π + (n + 3)δ, μ}
    d = 2π + nδ

where n = |Q|, δ bounds good-link packet delay, π is the leader's token
launch spacing (which must satisfy π > nδ), and μ is the spacing of
merge-probe attempts.  Theorem 7.2 then gives TO(b + d, d, Q) for the
full stack.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VSBounds:
    """Bound calculator for given protocol timing parameters.

    Parameters
    ----------
    delta:
        Good-link delivery bound δ.
    pi:
        Token launch spacing π (must exceed n·δ for the intended regime;
        :meth:`validate` checks this for a given n).
    mu:
        Merge-probe spacing μ.
    """

    delta: float
    pi: float
    mu: float

    def __post_init__(self) -> None:
        if self.delta <= 0 or self.pi <= 0 or self.mu <= 0:
            raise ValueError("delta, pi and mu must be positive")

    def validate(self, n: int) -> None:
        """Check the paper's constraint π > nδ for a group of size n."""
        if self.pi <= n * self.delta:
            raise ValueError(
                f"pi = {self.pi} must exceed n*delta = {n * self.delta}"
            )

    def b(self, n: int) -> float:
        """Membership stabilisation bound b(n)."""
        return 9 * self.delta + max(self.pi + (n + 3) * self.delta, self.mu)

    def d(self, n: int) -> float:
        """Safe-delivery latency bound d(n)."""
        return 2 * self.pi + n * self.delta

    def to_b(self, n: int) -> float:
        """The TO-level stabilisation bound b + d (Theorem 7.2)."""
        return self.b(n) + self.d(n)

    def to_d(self, n: int) -> float:
        """The TO-level delivery bound d (Theorem 7.2)."""
        return self.d(n)

    # ------------------------------------------------------------------
    # Bounds for this repository's concrete token variants.  The paper's
    # d assumes the exact Cristian–Schmuck token discipline; our two
    # variants have slightly different worst cases (same shape — linear
    # in π and n·δ):
    #
    # - periodic (hold-until-tick, the literal Section 8 reading): a
    #   message can wait a launch for its append pass, a second for its
    #   wrap-around deliveries, and early-ring members learn the
    #   completed counts one further pass later → ≈ 3π + nδ;
    # - work-conserving (leader relaunches while any entry is unsafe):
    #   one launch wait plus at most four back-to-back passes
    #   → ≈ π + 4nδ.  A member's wake only moves a launch earlier, so
    #   a lost one leaves this worst case as it was.
    # ------------------------------------------------------------------
    def d_impl(self, n: int, work_conserving: bool = False) -> float:
        """Worst-case safe latency of this repository's implementation."""
        if work_conserving:
            return self.pi + 4 * n * self.delta
        return 3 * self.pi + n * self.delta
