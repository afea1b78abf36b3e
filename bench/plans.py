"""Seeded load plans: the benchmark owns its inputs.

The program under test receives only what is generated here.  The web plan
draws from the same distributions as the repository's 100k-user experiment
(lognormal session arrivals and think times, Pareto session lengths and
path popularity) but stops at an exact request count and stratifies the
request mix, so every seed offers the same amount of work and run-to-run
spread measures the machine, not the tail of a Pareto draw.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

#: (simulated send time, request id, method, path)
Request = Tuple[float, str, str, str]

#: simulated seconds of offered load; a session still thinking at this point
#: has left, so the run length (snapshots taken, timer ticks) is the same at
#: every seed
WINDOW = 2.0
ARRIVAL_RATE = 600.0        # mean session arrivals per simulated second
ARRIVAL_SIGMA = 1.2
SESSION_ALPHA = 1.6         # Pareto shape of requests per session
MAX_SESSION_REQUESTS = 50
THINK_MEAN = 0.35           # simulated seconds between a session's requests
THINK_SIGMA = 0.9
CATALOG_ITEMS = 400
USER_PROFILES = 150
POPULARITY_ALPHA = 1.1


def _lognormal_mu(mean: float, sigma: float) -> float:
    """The lognormal ``mu`` that yields the requested distribution mean."""
    return math.log(mean) - sigma * sigma / 2.0


def _pareto_ids(count: int, modulus: int) -> List[int]:
    """``count`` ids at the evenly spaced quantiles of the Pareto popularity."""
    return [int((1.0 - (k + 0.5) / count) ** (-1.0 / POPULARITY_ALPHA)) % modulus
            for k in range(count)]


def _population(rng: random.Random, requests: int) -> List[Tuple[str, str]]:
    """The ``(method, path)`` of every request, in the order they are sent.

    Stratified: the shares of the four request kinds and the popularity of
    the ids are the distribution's own at every seed (drawing them would
    move the order count of a 115-request plan by ±30%); the seed decides
    which request goes where.
    """
    users = round(requests * 0.25)
    orders = round(requests * 0.10)
    health = round(requests * 0.03)
    items = requests - users - orders - health
    population = (
        [("GET", f"/api/item/{item}")
         for item in _pareto_ids(items, CATALOG_ITEMS)]
        + [("GET", f"/api/user/{profile}")
           for profile in _pareto_ids(users, USER_PROFILES)]
        + [("POST", "/api/order")] * orders
        + [("GET", "/api/health")] * health)
    rng.shuffle(population)
    return population


def web_plan(seed: int, requests: int) -> List[Request]:
    """An open-loop user population that issues exactly ``requests`` requests.

    Users arrive (one session each) until the request count is reached
    inside ``WINDOW``; the last session is cut short to land on it.  Send
    times are fixed here, on the simulated clock: a slow server never delays
    a later request.
    """
    rng = random.Random(seed)
    arrival_mu = _lognormal_mu(1.0 / ARRIVAL_RATE, ARRIVAL_SIGMA)
    think_mu = _lognormal_mu(THINK_MEAN, THINK_SIGMA)
    population = _population(rng, requests)
    plan: List[Request] = []
    clock = 0.05
    user = 0
    while len(plan) < requests:
        clock += rng.lognormvariate(arrival_mu, ARRIVAL_SIGMA)
        if clock >= WINDOW:
            raise ValueError(f"{requests} requests do not fit in {WINDOW} "
                             f"simulated seconds at {ARRIVAL_RATE} sessions/s")
        session = min(int(rng.paretovariate(SESSION_ALPHA)),
                      MAX_SESSION_REQUESTS, requests - len(plan))
        at = clock
        for index in range(session):
            if index:
                at += rng.lognormvariate(think_mu, THINK_SIGMA)
                if at >= WINDOW:
                    break
            method, path = population[len(plan)]
            plan.append((at, f"u{user}-{index}", method, path))
        user += 1
    plan.sort(key=lambda item: (item[0], item[1]))
    return plan
