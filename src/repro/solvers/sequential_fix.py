"""The generic sequential-fix (SF) heuristic for binary programs.

The paper's S1 scheduler fixes binary variables one LP-relaxation at a
time (Section IV-C-1): relax all unfixed binaries to ``[0, 1]``, solve,
fix every variable the LP put at 1 (and the single largest fractional
variable if none hit 1), zero out the variables that conflict with each
newly fixed one, and repeat until everything is fixed.  This module
implements that loop generically so it can be unit-tested away from the
scheduling model and reused by other binary subproblems.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence

from repro.exceptions import InfeasibleError, SolverError
from repro.solvers.linprog import LinearProgram, VarKey

#: Callback building the relaxed LP for the current fixings.  The
#: builder must declare every key in ``binary_keys`` as a variable with
#: bounds [0, 1] and honour the passed fixings (``fix_variable``).
LpBuilder = Callable[[Mapping[VarKey, float]], LinearProgram]

#: Callback yielding the variables that must be zero once ``key`` is 1.
ConflictFn = Callable[[VarKey], Iterable[VarKey]]


def sequential_fix(
    binary_keys: Sequence[VarKey],
    build_lp: LpBuilder,
    conflicts: ConflictFn,
    eps: float = 1e-6,
    max_iterations: Optional[int] = None,
    check_feasibility: bool = False,
) -> Dict[VarKey, int]:
    """Run the SF loop and return a full 0/1 assignment.

    Args:
        binary_keys: all binary variables to be fixed.
        build_lp: relaxed-LP factory honouring current fixings.
        conflicts: conflict sets enforced when a variable is fixed to 1.
        eps: rounding tolerance for "the LP set it to 1" / "to 0".
        max_iterations: safety cap; defaults to ``len(binary_keys) + 1``.
        check_feasibility: speculatively re-solve before committing any
            fix-to-1.  Needed when the LP carries coupling constraints
            beyond the conflict sets (e.g. big-M SINR rows): rounding a
            fractional variable up can then be jointly infeasible with
            earlier fixes, in which case it is fixed to 0 instead (the
            Hou et al. fallback).  Costs one extra LP solve per fix.

    Returns:
        Mapping of every key in ``binary_keys`` to 0 or 1.

    Raises:
        SolverError: if the loop fails to make progress (a symptom of a
            conflict callback that never zeroes anything).
    """
    remaining = set(binary_keys)
    fixed: Dict[VarKey, int] = {}
    if max_iterations is None:
        max_iterations = len(binary_keys) + 1

    def feasible_with(key: VarKey) -> bool:
        trial = dict(fixed)
        trial[key] = 1
        try:
            build_lp(trial).solve()
        except InfeasibleError:
            return False
        return True

    def fix_to_one(key: VarKey) -> bool:
        if check_feasibility and not feasible_with(key):
            fixed[key] = 0
            remaining.discard(key)
            return False
        fixed[key] = 1
        remaining.discard(key)
        for other in conflicts(key):
            if other in remaining:
                fixed[other] = 0
                remaining.discard(other)
        return True

    iterations = 0
    while remaining:
        iterations += 1
        if iterations > max_iterations:
            raise SolverError(
                f"sequential fix exceeded {max_iterations} iterations with "
                f"{len(remaining)} variables unfixed"
            )

        lp = build_lp(dict(fixed))
        if not all(lp.has_variable(k) for k in remaining):
            # Sorted only to format the message deterministically.
            missing = [k for k in sorted(remaining, key=repr) if not lp.has_variable(k)]
            raise SolverError(
                f"LP builder omitted unfixed binary variables: {missing[:5]}"
            )
        solution = lp.solve()

        # Deterministic candidate order: by LP value (descending), then
        # by key repr — `remaining` is a set, and ties must not depend
        # on hash iteration order.
        ordered = sorted(
            remaining, key=lambda k: (-solution.values[k], repr(k))
        )
        at_one = [k for k in ordered if solution.values[k] >= 1.0 - eps]
        if at_one:
            # Fix in decreasing LP-value order so conflict propagation
            # from an earlier fix can veto a later, lower-value one.
            for key in at_one:
                if key in remaining:
                    fix_to_one(key)
            continue

        best = ordered[0]
        if solution.values[best] <= eps:
            # The relaxation puts every unfixed variable at zero: with
            # all conflicts already resolved, all-zero is optimal.
            for key in list(remaining):  # noqa: R032 - every key gets the same value 0; dict order of the zeros is not observable downstream
                fixed[key] = 0
            remaining.clear()
            continue

        fix_to_one(best)

    return fixed
