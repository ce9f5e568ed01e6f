"""Helpers the tests share.

pendant_alpha_quotient and apply_transition restate what the package
computes another way, so a test that agrees with them checks the package
by a second route; law reads a stationary law as a dict keyed by state,
and law_gap compares two laws state by state.
"""

from matchq.errors import InvalidStateError


def pendant_alpha_quotient(rates):
    """The pendant chain's empty-state probability written as a single
    quotient; the package writes it as a sum over the two arms."""
    l1, l2, l3, _ = rates
    return (l3 * l3 - (l1 - l2) ** 2) / (l3 * (l3 + l1 + l2))


def apply_transition(state, arriving, decision):
    """Next queue vector: enqueue the arrival or remove the matched item."""
    out = list(int(q) for q in state)
    if decision is None:
        out[arriving - 1] += 1
    else:
        if out[decision - 1] <= 0:
            raise InvalidStateError(
                f"cannot match against empty queue of class {decision}"
            )
        out[decision - 1] -= 1
    return tuple(out)


def law(dist):
    """A stationary law as {state tuple: probability}, from its state array
    and probability vector."""
    return dict(zip(map(tuple, dist.state_array.tolist()), dist.probs.tolist()))


def law_gap(numeric, closed):
    """Largest |numeric - closed| probability over the numeric law's states;
    a state the closed law lacks counts as probability 0 there."""
    closed = law(closed)
    return max(abs(p - closed.get(s, 0.0)) for s, p in law(numeric).items())

