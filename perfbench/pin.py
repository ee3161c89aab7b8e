"""Regenerate ``pinned.json``: library values the checks compare against.

    python3 perfbench/pin.py

Run it only at a commit whose results are trusted (the values were pinned
at the commit that defined the benchmark).  A change that alters these
values beyond the tolerances in README.md is a behaviour change, not a
benchmark update.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json

import bootstrap

bootstrap.use_source_tree()

import numpy as np  # noqa: E402

from ccscatter import catalog, scattering, spectral, zeros  # noqa: E402

import workloads as wl  # noqa: E402


def _row(a, b, err) -> list[float]:
    return [float(a.real), float(a.imag), float(b.real), float(b.imag), float(err)]


def main() -> None:
    out: dict = {
        "scan_pool": {}, "real_pool": {}, "disk_counts": {}, "order_fits": {},
        "zero_scans": {}, "real_zeros": {},
    }
    for name in wl.VARYING:
        p = getattr(catalog, name)()
        out["scan_pool"][name] = {}
        for r in wl.SCAN_RADII:
            lams = np.array([wl.scan_coupling(r, j) for j in range(wl.SCAN_POOL)])
            a, b, err = scattering.coefficients_batch(p, lams)
            out["scan_pool"][name][str(r)] = [_row(*v) for v in zip(a, b, err)]
        rows = []
        for j in range(wl.REAL_POOL):
            c = scattering.coefficients(p, wl.real_coupling(j))
            rows.append(_row(c.a, c.b, c.err))
        out["real_pool"][name] = rows
        out["disk_counts"][name] = {
            str(r): zeros.disk_zero_count(p, r) for r in wl.DISK_RADII[name]
        }
        fit = zeros.order_fit(p, wl.ORDER_RADII[name])
        out["order_fits"][name] = {
            "counts": list(fit.counts),
            "log_max": list(fit.log_max_modulus),
            "count_exponent": fit.count_exponent,
            "growth_exponent": fit.growth_exponent,
        }
        interval, grid = wl.ZERO_SCANS[name]
        rep = zeros.real_zero_scan(p, interval, grid)
        out["zero_scans"][name] = [[z.real, m] for z, m, _ in rep.zeros]
        # zeros of b on [0, 400] are where the eigencount steps up
        lo, hi = wl.EIGEN_RANGE
        rep = zeros.real_zero_scan(p, (-1.0, hi + 5.0), 1620)
        # the structural zero at 0 comes back as rounding noise of either sign
        found = [0.0 if abs(z) < 1e-9 else z.real for z, _, _ in rep.zeros]
        out["real_zeros"][name] = sorted(z for z in found if z >= 0.0)
        angles = spectral.boundary_angles(p)
        top = spectral.negative_eigenvalue_count(p, hi, angles)
        if int(top) != sum(1 for z in out["real_zeros"][name] if z < hi):
            raise SystemExit(f"{name}: eigencount at {hi} disagrees with the zero list")
    witness = spectral.tent_witness(catalog.box_barrier(), -1e4, 5)
    out["cli"] = {"box_witness": {"centers": list(witness.centers), "epsilon": witness.epsilon}}
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    (bootstrap.ROOT / "perfbench" / "pinned.json").write_text(text)


if __name__ == "__main__":
    main()
