"""Seeded inputs, the metric spec and the percentile rule of the benchmark.

Everything a workload sends to the program comes from here, derived from
the workload seed alone, so one seed always gives byte-identical inputs.
"""

import json
import os
import random
import re

# The paper's 17 x86-generic kernel versions (kStudyVersions); the LTS
# corpus is the CLI's default `study build` corpus.
DS17_VERSIONS = ("4.4,4.8,4.10,4.13,4.15,4.18,5.0,5.3,5.4,5.8,5.11,5.13,5.15,"
                 "5.19,6.2,6.5,6.8")
DS17_SCALE = "0.25"
LTS_SCALE = "1.0"
LTS_IMAGES = 5

BATCH_SIZE = 32
HOT_SHARE = 0.70   # corpus dependency sets, sent verbatim: cache hits
COLD_SHARE = 0.25  # seeded subsets of their union: misses
# The remaining 5% name an emitted .o file.
COLD_ITEMS = (3, 12)

# BENCHMARK.json at the checkout root names the workloads and every metric
# with its unit; the runner reports exactly those.
SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 70.0, 60.0, 50.0)


class TooFewSamples(Exception):
    pass


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule, and how many samples lie beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, -(-round(p * 10) * n // 1000))  # ceil(p/100 * n), exact for p in tenths
    return sorted_values[rank - 1], n - rank


def tail(values):
    """(p, value): the highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= 10:
            return p, value
    raise TooFewSamples(f"{len(ordered)} samples: no percentile has 10 beyond it")


def percentile(values, p):
    """The p-th percentile, refusing one with fewer than ten samples beyond it."""
    value, beyond = nearest_rank(sorted(values), p)
    if beyond < 10:
        raise TooFewSamples(f"p{p:g} of {len(values)} samples has {beyond} beyond it")
    return value


def derived_seed(seed, purpose):
    """A 31-bit seed for one consumer of the workload seed."""
    return random.Random(f"{seed}:{purpose}").randrange(1, 2 ** 31)


def object_order(seed, programs, count):
    """`count` program names: seeded shuffles of the corpus, one after another."""
    rng = random.Random(f"{seed}:fix-order")
    order = []
    while len(order) < count:
        cycle = sorted(programs)
        rng.shuffle(cycle)
        order.extend(cycle)
    return order[:count]


def _cold_pool(depsets):
    """Every name the corpus dependency sets mention, in a fixed order."""
    items = set()
    for line in depsets:
        deps = json.loads(line)
        for kind in ("funcs", "tracepoints", "syscalls", "lsm_hooks"):
            items.update((kind, name) for name in deps[kind])
        for struct, fields in deps["fields"].items():
            items.add(("struct", struct))
            for field, dep in fields.items():
                items.add(("field", struct, field, dep["type"], dep["guarded"]))
    return sorted(items, key=repr)


def _cold_request(rng, pool):
    req = {"program": "cold", "funcs": [], "fields": {}, "tracepoints": [],
           "syscalls": [], "lsm_hooks": []}
    for item in rng.sample(pool, min(len(pool), rng.randint(*COLD_ITEMS))):
        if item[0] == "struct":
            req["fields"].setdefault(item[1], {})
        elif item[0] == "field":
            req["fields"].setdefault(item[1], {})[item[2]] = {"type": item[3],
                                                              "guarded": item[4]}
        else:
            req[item[0]].append(item[1])
    return json.dumps(req, separators=(", ", ": "))


def serve_batches(seed, depsets, objects):
    """Endless seeded stream of batches; each batch is a list of (key, line).

    `key` is the request without its id: requests with equal keys must get
    equal answers. `depsets` are the corpus dependency-set requests and
    `objects` the object paths, both in corpus order.
    """
    rng = random.Random(f"{seed}:serve-mix")
    pool = _cold_pool(depsets)
    next_id = 0
    while True:
        batch = []
        for _ in range(BATCH_SIZE):
            draw = rng.random()
            if draw < HOT_SHARE:
                key = depsets[rng.randrange(len(depsets))]
            elif draw < HOT_SHARE + COLD_SHARE:
                key = _cold_request(rng, pool)
            else:
                key = json.dumps({"object": objects[rng.randrange(len(objects))]})
            next_id += 1
            batch.append((key, '{"id": %d, %s' % (next_id, key[1:])))
        yield batch


def check_names(spec):
    """Problems with the spec's names and units: each must be well formed and used once."""
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    problems = [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    problems += [f"{n!r} used twice" for n in sorted({n for n in names if names.count(n) > 1})]
    problems += [f"{m['name']}: bad unit {m.get('unit')!r}" for m in metrics
                 if not UNIT_RE.match(m.get("unit") or "")]
    problems += [f"{m['name']}: bound {m['bound']} not in (0, 0.25]"
                 for m in spec["end_to_end"] if not 0 < m["bound"] <= 0.25]
    return problems
