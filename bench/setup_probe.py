"""Time one cold set-up: import eqlines and fill its first-use caches.

Usage: python3 setup_probe.py SRC_DIR WARM_JSON

WARM_JSON is a list of [conductor, [precision, ...]] pairs. Building a
field element fills the per-conductor context cache; embedding it at a
precision fills the root-of-unity powers cache. Prints the seconds.
"""

import json
import sys
import time


def warm(spec):
    from eqlines import CycloField
    from eqlines.exact import cyclo_embed

    for n, precisions in spec:
        z = CycloField(n).one()
        for p in precisions:
            cyclo_embed(z, p)


def main():
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import eqlines  # noqa: F401
    import eqlines.cli  # noqa: F401

    warm(spec)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
