"""Write known_disagreements.json: the pool histories of ``ddo-oracles``
that the spec accepts and dDO rejects (ROADMAP open item 1).

    python3 perfbench/pin.py

Decides every history of the full and the tiny pool.  A change that alters
the oracles' verdicts on purpose reruns this and says so; any other outcome
than (True, True) or (True, False) is a failure and is not pinned.
"""

import json
import sys

import run


def main():
    pk = run.load_package()
    known = {}
    for tiny in (False, True):
        wl = run.DdoOracles(tiny)
        pool, _counts, _s, digest = wl.build_pool(pk)
        if digest != wl.digest:
            print("pool digest %s, expected %s" % (digest, wl.digest))
            return 1
        _lat, outcomes = wl.decide_all(pk, pool)
        bad = {o for o in outcomes if o not in ((True, True), (True, False))}
        if bad:
            print("%s pool: unexpected outcomes %s" % (wl.pin, bad))
            return 1
        known[wl.pin] = [i for i, o in enumerate(outcomes) if not o[1]]
        print("%s pool: %d of %d histories disagree"
              % (wl.pin, len(known[wl.pin]), len(pool)))
    with open(run.KNOWN_FILE, "w") as f:
        json.dump(known, f)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
