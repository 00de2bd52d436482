"""Check the column loaders and the column validator on real traffic.

    PYTHONPATH=src python tests/loader_traffic_check.py

Builds every input document of the ``market-day``, ``best-response`` and
``acbm-fine`` benchmark workloads from ``bench/gen.py`` at seeds 1, 9 and
37: instances, extensions, splits.  Each is loaded with ``model``'s loader
and with the reference walk of ``tests/conftest.py``, and the two objects
must be equal; each split is then validated against its instance by
``validate_profile`` and by ``conftest.reference_validate_profile``, and
the two error lists must be equal.  These documents are wider than the
fixtures (splits of up to 960 rows whose budget texts repeat).  Not
collected by pytest; exits 1 on the first document that differs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
from broadmatch.model import (load_instance, load_split,  # noqa: E402
                              validate_profile)
from conftest import (reference_load_instance,  # noqa: E402
                      reference_load_profile, reference_validate_profile)

SEEDS = (1, 9, 37)


def main() -> int:
    counts = {"instance": 0, "split": 0, "rows": 0}
    for workload in sorted(gen.WORKLOADS):
        for seed in SEEDS:
            files, _ = gen.WORKLOADS[workload](seed)
            instances = {}
            for name in sorted(files):
                if name.endswith(".split.json"):
                    continue
                got = load_instance(files[name])
                if got != reference_load_instance(files[name]):
                    print("%s seed %d %s: instances differ"
                          % (workload, seed, name))
                    return 1
                instances[name] = got
                counts["instance"] += 1
            for name in sorted(files):
                if not name.endswith(".split.json"):
                    continue
                got = load_split(files[name])
                if got != reference_load_profile(files[name], "split"):
                    print("%s seed %d %s: splits differ"
                          % (workload, seed, name))
                    return 1
                instance = instances[name[:-len(".split.json")] + ".json"]
                errors = validate_profile(instance, got)
                want = reference_validate_profile(instance, got)
                if errors != want:
                    print("%s seed %d %s: errors %r != %r"
                          % (workload, seed, name, errors, want))
                    return 1
                counts["split"] += 1
                counts["rows"] += len(got.rows)
    print("%d instance and extension documents and %d splits (%d rows) of "
          "%s at seeds %s: loaders and validators agree"
          % (counts["instance"], counts["split"], counts["rows"],
             ", ".join(sorted(gen.WORKLOADS)), ", ".join(map(str, SEEDS))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
