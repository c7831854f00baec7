"""Bit-identity grids: one text line per case, for pinning by digest and for diffing two trees.

``escalation_grid`` runs the block engine's escalations; ``frame_grid`` and
``wide_frame_grid`` run single frames through ``synthesize_frame`` and ``run_ris_id``. Tier-1
pins each by its sha256 (``TestEscalationGrid``, ``TestFrameGrid``, ``TestWideFrameGrid``). All
use only public risid names, so the same file runs under another tree's ``src``:

    PYTHONPATH=path/to/src python tests/grids.py > grids.txt

prints the escalation lines, then the frame lines, then the wide frame lines.
"""

from risid.channel import LinkBudget, RisGeometry, identity_correlation
from risid.cli import Scenario
from risid.codes import BinarySequence, build_codebook, hadamard_matrix
from risid.detector import run_ris_id
from risid.montecarlo import BLOCK, TrialPlan, estimate_pf
from risid.signal import RisProfile, noise_variance_from_bandwidth, synthesize_frame


def escalation_grid():
    """One line per escalating false-detection estimate. The CLI never escalates, so the bundled
    configs never run [0, n) then [n, 10 n): this grid does, about a block's edge, with surface 1
    forced off beside a fair-coin surface 2, two spacings and one and two workers. A line holds
    the estimate's repr."""
    for spacing in ("none", "tenth-lambda"):
        scn = Scenario(m=16, v_total=4, code_rows=(1, 2), n_elements=16, n_horizontal=4,
                       spacing=spacing, p_dbm=10.0)
        for n in (1, 700, BLOCK - 1, BLOCK + 1):
            for threads in (1, 2):
                plan = TrialPlan(scenario=scn, trials=n, max_trials=10 * n, seed=5, threads=threads)
                for r_bar in (3.3, 4.5):
                    yield f"{spacing} {n} {threads} {r_bar} {estimate_pf(plan, 1, r_bar)!r}"


def frame_grid():
    """One line per frame of a fixed grid: 1 and 3 surfaces, the three spacings, surfaces
    reachable and silent, two seeds, three frames each. A line holds the frame's truth, every
    candidate's decision (metric as float hex) and the sample bytes."""
    book = build_codebook(16, [3, 6, 13])
    lam = 299792458.0 / 1.8e9
    link = LinkBudget.from_distances(1.8e9, 10.0, 50.0)
    sn2 = noise_variance_from_bandwidth(20e6)
    for spacing, d in (("none", lam / 2), ("half-lambda", lam / 2), ("tenth-lambda", lam / 10)):
        geom = RisGeometry(n=16, n_h=4, d_h=d, d_v=d, wavelength=lam)
        profiles = [RisProfile(id=c.id, code=c, geometry=geom, link=link) for c in book.entries]
        for count, patterns in ((1, ((True,), (False,))),
                                (3, ((True,) * 3, (False,) * 3, (True, False, True)))):
            profs = profiles[:count]
            corrs = {p.id: identity_correlation(16) for p in profs} if spacing == "none" else None
            for reach in patterns:
                for seed in (5, 2**64 - 3):
                    for index in range(3):
                        fr = synthesize_frame(profs, 4, sn2, 1e-2, seed=seed, frame_index=index,
                                              reachability=dict(zip((1, 2, 3), reach)),
                                              correlations=corrs)
                        rep = run_ris_id(fr, [(p.code, 9.0 * sn2) for p in profs])
                        yield f"{spacing} {count} {reach} {seed} {index} {_frame_line(fr, rep)}"


def wide_frame_grid():
    """``frame_grid``'s line at the edges of a frame's inputs: M = 2 and 64, v_total 1 and
    M - 1, frame indices 0 and 2**40 - 1, seeds 0 and 2**64 - 1, the three spacings at N = 4,
    one surface (id 2**16 - 1) and two (ids 1 and 2**16 - 1), all reachable or the last one
    silent. At M = 2 both surfaces carry row 1, the one usable row."""
    lam = 299792458.0 / 1.8e9
    link = LinkBudget.from_distances(1.8e9, 10.0, 50.0)
    sn2 = noise_variance_from_bandwidth(20e6)
    for m, rows in ((2, (1, 1)), (64, (63, 33))):
        h = hadamard_matrix(m)
        codes = [BinarySequence(i, h[r]) for i, r in zip((1, 2**16 - 1), rows)]
        for spacing, d in (("none", lam / 2), ("half-lambda", lam / 2), ("tenth-lambda", lam / 10)):
            geom = RisGeometry(n=4, n_h=2, d_h=d, d_v=d, wavelength=lam)
            for profs in ([RisProfile(id=c.id, code=c, geometry=geom, link=link) for c in codes[1:]],
                          [RisProfile(id=c.id, code=c, geometry=geom, link=link) for c in codes]):
                ids = [p.id for p in profs]
                corrs = {i: identity_correlation(4) for i in ids} if spacing == "none" else None
                for reach in ((True,) * len(ids), (True,) * (len(ids) - 1) + (False,)):
                    for v_total in sorted({1, m - 1}):
                        for seed in (0, 2**64 - 1):
                            for index in (0, 2**40 - 1):
                                fr = synthesize_frame(profs, v_total, sn2, 1e-2, seed=seed,
                                                      frame_index=index,
                                                      reachability=dict(zip(ids, reach)),
                                                      correlations=corrs)
                                rep = run_ris_id(fr, [(p.code, 9.0 * sn2) for p in profs])
                                yield (f"{m} {spacing} {ids} {reach} {v_total} {seed} {index} "
                                       f"{_frame_line(fr, rep)}")


def _frame_line(fr, rep):
    """A frame's truth, every candidate's decision (metric as float hex) and the sample bytes."""
    t = fr.truth
    gains = {i: (h.real.hex(), h.imag.hex()) for i, h in t.gains.items()}
    dec = [(i, r.metric.hex(), r.c_hat, r.k_hat, r.decided) for i, r in rep.per_ris.items()]
    return (f"v1={t.v1!r} v2={t.v2!r} c={t.c_per_ris} g={gains} d={dec} "
            f"s={fr.samples.tobytes().hex()}")


if __name__ == "__main__":
    for grid in (escalation_grid, frame_grid, wide_frame_grid):
        for line in grid():
            print(line)
