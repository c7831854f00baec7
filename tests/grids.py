"""Bit-identity grids: one text line per case, for pinning by digest and for diffing two trees.

``escalation_grid`` runs the block engine's escalations; ``frame_grid`` runs single frames
through ``synthesize_frame`` and ``run_ris_id``. Tier-1 pins each by its sha256
(``TestEscalationGrid``, ``TestFrameGrid``). Both use only public risid names, so the same
file runs under another tree's ``src``:

    PYTHONPATH=path/to/src python tests/grids.py > grids.txt

prints the escalation lines, then the frame lines.
"""

from risid.channel import LinkBudget, RisGeometry, identity_correlation
from risid.cli import Scenario
from risid.codes import build_codebook
from risid.detector import run_ris_id
from risid.montecarlo import BLOCK, TrialPlan, estimate_pf, estimate_pmiss
from risid.signal import RisProfile, noise_variance_from_bandwidth, synthesize_frame


def escalation_grid():
    """One line per escalating estimate. The CLI never escalates, so the bundled configs never
    run [0, n) then [n, 10 n): this grid does, about a block's edge, with coin, forced-on and
    forced-off surfaces, two spacings and one and two workers. A line holds the estimate's
    repr."""
    for spacing in ("none", "tenth-lambda"):
        scn = Scenario(m=16, v_total=4, code_rows=(1, 2), n_elements=16, n_horizontal=4,
                       spacing=spacing, p_dbm=10.0)
        for n in (1, 700, BLOCK - 1, BLOCK + 1):
            for threads in (1, 2):
                plan = TrialPlan(scenario=scn, trials=n, max_trials=10 * n, seed=5, threads=threads)
                for estimate, r_bar in ((estimate_pf, 3.3), (estimate_pf, 4.5),
                                        (estimate_pmiss, 0.5), (estimate_pmiss, 1.0)):
                    yield f"{spacing} {n} {threads} {r_bar} {estimate(plan, 1, r_bar)!r}"


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
                        t = fr.truth
                        gains = {i: (h.real.hex(), h.imag.hex()) for i, h in t.gains.items()}
                        dec = [(i, r.metric.hex(), r.c_hat, r.k_hat, r.decided)
                               for i, r in rep.per_ris.items()]
                        yield (f"{spacing} {count} {reach} {seed} {index} v1={t.v1!r} v2={t.v2!r} "
                               f"c={t.c_per_ris} g={gains} d={dec} s={fr.samples.tobytes().hex()}")


if __name__ == "__main__":
    for grid in (escalation_grid, frame_grid):
        for line in grid():
            print(line)
