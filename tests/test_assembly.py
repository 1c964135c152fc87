"""Operator assembly: structure, oracles, and the summation-form matvec.

The reference matvec below evaluates the model's summation form directly
(dense pairwise kernels from the closed-form cosine profile, boundary
trace eliminated, the kernel constant C_R appearing and cancelling
explicitly), independent of the sparse assembly path.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from nlpoisson.assembly import (
    AssemblyError,
    _boundary_block,
    assemble,
    boundary_coupling,
    boundary_trace,
    export_matrix,
    interior_laplacian,
    pair_graph,
    smoothed_forcing,
    symmetric_product,
)
from nlpoisson.geometry import PointCloud, build_cloud, get_case, sample_case
from nlpoisson.kernels import compute_CR, normalization, pair_eval
from nlpoisson.solver import solve_mean_zero, solve_spd
from nlpoisson.variants import assemble_lambda


def _cos(level, r):
    """Closed-form cosine levels, written out for oracle independence."""
    r = np.asarray(r, dtype=float)
    inside = r <= 1.0
    out = np.zeros_like(r)
    if level == "base":
        out[inside] = 0.5 * (1.0 + np.cos(np.pi * r[inside]))
    elif level == "bar":
        out[inside] = 0.5 * ((1.0 - r[inside]) - np.sin(np.pi * r[inside]) / np.pi)
    else:
        raise AssertionError(level)
    return out


def reference_apply(cloud, U, CR):
    """A * (summation form of the interior equation, V eliminated)."""
    d = cloud.delta
    P, Q = cloud.points, cloud.boundary
    A, L, nq = cloud.A, cloud.L, cloud.normals
    Cd = normalization(d, cloud.m)
    D2 = ((P[:, None, :] - P[None, :, :]) ** 2).sum(-1)
    R = Cd * _cos("base", D2 / (4 * d * d))
    term1 = (R * (U[:, None] - U[None, :]) * A[None, :]).sum(1) / (d * d)

    D2q = ((P[:, None, :] - Q[None, :, :]) ** 2).sum(-1)
    Bar = Cd * _cos("bar", D2q / (4 * d * d))
    Z = -(((P[:, None, :] - Q[None, :, :]) * nq[None, :, :]).sum(-1)) * Bar
    omega = (Z * A[:, None]).sum(0)
    V = (Z * (A * U)[:, None]).sum(0) / omega

    D2b = ((Q[:, None, :] - Q[None, :, :]) ** 2).sum(-1)
    Barb = Cd * _cos("bar", D2b / (4 * d * d))
    lap0 = -(2.0 / (d * CR)) * (Barb * (V[:, None] - V[None, :]) * L[None, :]).sum(1)
    term2 = -d * CR * (Z * (lap0 / omega)[None, :] * L[None, :]).sum(1)
    return A * (term1 + term2)


def test_zeta_entry_values(profile):
    """The coupling zeta(p, q) = -(p - q) . n(q) Kbar(p, q) that
    boundary_coupling builds, its normalization undone, on one boundary
    point q and interior points at q, 3 delta away and at q - (delta/2) n."""
    q = np.array([np.sqrt(3) / 2, 0.0, 0.5])
    n_q = np.array([0.5, 0.0, -np.sqrt(3) / 2])
    delta = 0.3
    far = q + np.array([0.0, 3 * delta, 0.0])
    # one step inward along -n at distance delta/2: positive coupling
    p = q - 0.5 * delta * n_q
    cloud = PointCloud(case_name="hemisphere2", m=2, t=5, seed=0, delta=delta,
                       points=np.array([q, far, p, q]), m0=1, A=np.ones(4),
                       L=np.ones(1), normals=n_q[None, :])
    coupling = boundary_coupling(cloud, pair_graph(cloud, profile=profile)[0])
    zeta = coupling.zeta[:, 0].toarray()[:, 0] * coupling.omega_hat[0]
    assert zeta[0] == 0.0
    assert zeta[1] == 0.0
    val = zeta[2]
    bar = normalization(delta, 2) * _cos("bar", np.array(1.0 / 16.0))
    assert val == pytest.approx(0.5 * delta * float(bar), rel=1e-13)
    assert val > 0


def _two_point_cloud(profile):
    pts = np.array([[0.0, 0.0, 1.0], [0.05, 0.0, 0.99874921777190884]])
    pts[1] /= np.linalg.norm(pts[1])
    return PointCloud(case_name="hemisphere2", m=2, t=5, seed=0,
                      delta=0.2, points=pts, m0=0,
                      A=np.array([0.3, 0.4]), L=np.zeros(0),
                      normals=np.zeros((0, 3)))


def test_interior_laplacian_two_points(profile):
    cloud = _two_point_cloud(profile)
    RA = interior_laplacian(cloud, profile=profile).toarray()
    sq = ((cloud.points[0] - cloud.points[1]) ** 2).sum()
    w = normalization(0.2, 2) * float(_cos("base", np.array(sq / 0.16))) * 0.3 * 0.4
    assert np.allclose(RA, w * np.array([[1.0, -1.0], [-1.0, 1.0]]), rtol=1e-14)


def test_interior_laplacian_structure(medium_cloud, profile):
    RA = interior_laplacian(medium_cloud, profile=profile)
    ones = np.ones(medium_cloud.n0)
    scale = np.abs(RA.data).max()
    assert np.abs(RA @ ones).max() <= 1e-12 * scale
    # diagonal equals the absolute off-diagonal row sum (graph structure)
    dense = RA.toarray()
    offsum = np.abs(dense - np.diag(np.diag(dense))).sum(axis=1)
    assert np.allclose(np.diag(dense), offsum, rtol=1e-12)
    # stored pairs live within the interaction horizon
    coo = RA.tocoo()
    mask = coo.row != coo.col
    dist = np.linalg.norm(medium_cloud.points[coo.row[mask]]
                          - medium_cloud.points[coo.col[mask]], axis=1)
    assert dist.max() <= 2.0 * medium_cloud.delta + 1e-12


def test_boundary_laplacian_three_points(profile):
    rho, delta = 0.6, 0.5
    phi = np.array([0.0, 0.25, 0.5])
    q = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.full(3, 0.5)])
    cloud = PointCloud(case_name="hemisphere2", m=2, t=5, seed=0,
                       delta=delta, points=q, m0=3,
                       A=np.ones(3), L=np.array([0.1, 0.2, 0.3]),
                       normals=np.zeros((3, 3)))
    RL = _boundary_block(pair_graph(cloud, profile=profile)[0],
                         cloud.L).toarray()
    Cd = normalization(delta, 2)
    expected = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            if k == l:
                continue
            sq = ((q[k] - q[l]) ** 2).sum()
            w = Cd * float(_cos("bar", np.array(sq / (4 * delta**2))))
            w *= cloud.L[k] * cloud.L[l]
            expected[k, l] = -w
            expected[k, k] += w
    assert np.allclose(RL, expected, rtol=1e-13, atol=1e-16)
    assert np.abs(RL @ np.ones(3)).max() < 1e-16


def test_source_vector_basics(medium_cloud, profile):
    def source(f=None):
        system = assemble(medium_cloud, profile=profile, f=f)
        A = medium_cloud.A
        shift = float(system.f_delta @ A / A.sum())
        return system.f_delta - shift, shift

    zero, shift0 = source(lambda x: np.zeros(x.shape[0]))
    assert np.all(zero == 0.0) and shift0 == 0.0
    Fc, _ = source(lambda x: np.full(x.shape[0], 3.7))
    assert abs(float(Fc @ medium_cloud.A)) <= 1e-14 * np.abs(Fc).max()
    F, _ = source()
    assert abs(float(F @ medium_cloud.A)) <= 1e-12 * float(np.abs(F) @ medium_cloud.A)


def test_assemble_structure(small_system):
    S = small_system.S
    assert (S - S.T).count_nonzero() == 0
    ones = np.ones(S.shape[0])
    assert np.abs(S @ ones).max() <= 1e-10 * np.abs(S.data).max()
    assert abs(small_system.rhs.sum()) <= 1e-10 * np.abs(small_system.rhs).sum()
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(S.shape[0])
        assert float(x @ (S @ x)) >= -1e-12 * float(x @ x) * np.abs(S.data).max()


def test_system_reads_its_cloud(small_cloud, small_system):
    """A and delta are the cloud's own, also in a system replaced with
    another cloud."""
    assert small_system.A is small_cloud.A
    assert small_system.delta == small_cloud.delta
    moved = replace(small_cloud, delta=0.5, A=2.0 * small_cloud.A)
    other = replace(small_system, cloud=moved)
    assert other.A is moved.A and other.delta == 0.5


def test_assemble_dense_spectrum(small_system):
    dense = small_system.S.toarray()
    vals = np.linalg.eigvalsh(dense)
    assert abs(vals[0]) <= 1e-12 * vals[-1]
    assert vals[1] > 1e-8 * vals[-1]


def test_reduced_mode_is_pure_diffusion(small_cloud, profile):
    system = assemble(small_cloud, profile=profile, mode="reduced")
    RA = interior_laplacian(small_cloud, profile=profile)
    diff = system.S - RA.multiply(1.0 / small_cloud.delta**2).tocsr()
    assert abs(diff).max() <= 1e-15 * np.abs(system.S.data).max()
    assert system.coupling.zeta.count_nonzero() == 0
    assert system.coupling.RbarL.count_nonzero() == 0
    assert np.all(system.coupling.omega_hat == 0.0)


def test_omega_positive_and_scaled(medium_cloud, profile):
    omega = assemble(medium_cloud, profile=profile).coupling.omega_hat
    assert np.all(omega > 0)
    CR = compute_CR(profile, 2)
    ratio = omega / (medium_cloud.delta * CR)
    assert np.all(ratio > 0.5) and np.all(ratio < 1.5)


def test_omega_degenerate_raises(profile):
    # a single cloud point on the wrong side of the co-normal
    q = np.array([[np.sqrt(3) / 2, 0.0, 0.5]])
    p_out = q[0] + 0.1 * np.array([0.5, 0.0, -np.sqrt(3) / 2])
    cloud = PointCloud(case_name="hemisphere2", m=2, t=5, seed=0,
                       delta=0.3, points=np.vstack([p_out, q]), m0=1,
                       A=np.array([1.0, 1.0]), L=np.array([0.1]),
                       normals=np.array([[0.5, 0.0, -np.sqrt(3) / 2]]))
    with pytest.raises(AssemblyError, match="q_0"):
        assemble(cloud, profile=profile)


@pytest.mark.parametrize("case,t", [
    pytest.param("hemisphere2", 5, id="5"),
    pytest.param("hemisphere2", 10, id="10"),
    pytest.param("hemisphere3", 4, id="hemisphere3-4"),
])
def test_matvec_matches_summation_form(case, t, profile):
    cloud = build_cloud(case, t, 1)
    system = assemble(cloud, profile=profile, mode="full")
    CR = compute_CR(profile, cloud.m)
    rng = np.random.default_rng(100 + t)
    for _ in range(20):
        U = rng.standard_normal(cloud.n0)
        got = system.S @ U
        want = reference_apply(cloud, U, CR)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_energy_splitting(small_cloud, small_system, profile):
    rng = np.random.default_rng(11)
    U = rng.standard_normal(small_cloud.n0)
    d = small_cloud.delta
    P, A = small_cloud.points, small_cloud.A
    D2 = ((P[:, None, :] - P[None, :, :]) ** 2).sum(-1)
    R = normalization(d, 2) * _cos("base", D2 / (4 * d * d))
    pair_term = 0.5 / (d * d) * float(
        ((U[:, None] - U[None, :]) ** 2 * R * A[:, None] * A[None, :]).sum())
    V = boundary_trace(small_system.coupling, A, U)
    bnd_term = 2.0 * float(V @ (small_system.coupling.RbarL @ V))
    total = float(U @ (small_system.S @ U))
    assert total == pytest.approx(pair_term + bnd_term, rel=1e-10)
    assert total >= 0.0


def test_boundary_trace_constant(small_system, small_cloud):
    c = 2.31
    V = boundary_trace(small_system.coupling, small_cloud.A,
                       np.full(small_cloud.n0, c))
    assert np.abs(V - c).max() < 1e-12


def test_boundary_trace_consistency():
    cloud = build_cloud("hemisphere2", 40, 1)
    case = get_case("hemisphere2")
    system = assemble(cloud, mode="full")
    U = case.exact_u(cloud.points)
    V = boundary_trace(system.coupling, cloud.A, U)
    uq = case.exact_u(cloud.boundary)
    # kernel-smoothed trace differs from point values at first order in delta
    assert np.abs(V - uq).max() <= 0.5 * cloud.delta


def test_boundary_trace_reduced(small_cloud, profile):
    system = assemble(small_cloud, profile=profile, mode="reduced")
    V = boundary_trace(system.coupling, small_cloud.A,
                       np.ones(small_cloud.n0))
    assert np.all(V == 0.0)


def test_nnz_scales_linearly(profile):
    """At fixed kernel overlap (delta tied to spacing) nnz grows like n0."""
    c20 = build_cloud("hemisphere2", 20, 1)
    c40 = build_cloud("hemisphere2", 40, 1)
    spacing20 = np.sqrt(np.pi / c20.n0)
    spacing40 = np.sqrt(np.pi / c40.n0)
    s20 = assemble(replace(c20, delta=4.0 * spacing20), profile=profile)
    s40 = assemble(replace(c40, delta=4.0 * spacing40), profile=profile)
    n_ratio = s40.S.shape[0] / s20.S.shape[0]
    nnz_ratio = s40.S.count_nonzero() / s20.S.count_nonzero()
    assert nnz_ratio <= 1.6 * n_ratio


def test_export_matrix(tmp_path, small_system):
    path = tmp_path / "S.txt"
    export_matrix(small_system, path)
    rows = []
    for line in path.read_text().splitlines():
        r, c, v = line.split()
        rows.append((int(r), int(c), float(v)))
    dense = np.zeros(small_system.S.shape)
    for r, c, v in rows:
        dense[r, c] = v
    assert np.array_equal(dense, small_system.S.toarray())
    meta = (tmp_path / "S.txt.meta").read_text()
    assert "n0 = 40" in meta and "mode = full" in meta and "seed = 1" in meta


def test_smoothed_forcing_modes(medium_cloud, profile):
    case_forcing = get_case(medium_cloud.case_name).forcing

    def forcing(mode):
        calls = []

        def counted(x):
            calls.append(x.shape[0])
            return case_forcing(x)
        system = assemble(medium_cloud, profile=profile, mode=mode, f=counted)
        # one evaluation at the n0 points: the boundary values are their tail
        assert calls == [medium_cloud.n0]
        fd = smoothed_forcing(medium_cloud, system.pairs, system.coupling)
        assert np.array_equal(fd, system.f_delta)
        return fd

    assert not np.array_equal(forcing("full"), forcing("reduced"))
    with pytest.raises(ValueError):
        forcing("both")
    with pytest.raises(ValueError, match="flux"):
        assemble(medium_cloud, profile=profile, mode="reduced",
                 g=lambda q: np.ones(q.shape[0]))


@pytest.mark.parametrize("missing,mode,message", [
    (("A",), "full", "volume_weights"),
    (("A",), "reduced", "volume_weights"),
    (("L",), "full", "boundary_weights"),
    (("normals",), "full", "conormal"),
    (("L", "normals"), "reduced", None),
], ids=["no_A-full", "no_A-reduced", "no_L-full", "no_normals-full",
        "no_L_no_normals-reduced"])
def test_assemble_needs_the_cloud_weights(small_cloud, missing, mode, message):
    """A cloud without the weights or co-normals its mode reads is refused
    with the step that makes them; reduced mode reads only A."""
    cloud = replace(small_cloud, **dict.fromkeys(missing))
    if message is None:
        got = assemble(cloud, mode=mode).S
        want = assemble(small_cloud, mode=mode).S
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.indices, want.indices)
    else:
        with pytest.raises(ValueError, match=message):
            assemble(cloud, mode=mode)


def test_symmetric_product_is_exact_and_symmetric():
    """B M B^T of a random sparse B and a symmetric M is symmetric bit for
    bit and matches the dense product."""
    rng = np.random.default_rng(5)
    B = sparse.random(40, 25, density=0.15, format="csr", random_state=rng)
    half = sparse.random(25, 25, density=0.2, format="csr", random_state=rng)
    M = half + half.T
    P = symmetric_product(B, M)
    assert (P - P.T).count_nonzero() == 0
    Bd = B.toarray()
    want = Bd @ M.toarray() @ Bd.T
    assert np.abs(P.toarray() - want).max() <= 1e-14 * np.abs(want).max()


@pytest.fixture(scope="module", params=[("hemisphere2", 10), ("hemisphere3", 4)],
                ids=["hemisphere2-10", "hemisphere3-4"])
def operator_cloud(request):
    return build_cloud(*request.param, 1)


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_operator_matches_its_matrix(operator_cloud, mode):
    """The factored operator's apply, to a vector and to an (n, 9) block,
    and its diagonal equal those of the multiplied-out S."""
    system = assemble(operator_cloud, mode=mode)
    op, S = system.operator, system.S
    rng = np.random.default_rng(27)
    x = rng.standard_normal(operator_cloud.n0)
    X = rng.standard_normal((operator_cloud.n0, 9))
    for got, want in ((op @ x, S @ x), (op @ X, S @ X)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    d = S.diagonal()
    assert np.abs(op.diagonal() - d).max() <= 1e-13 * np.abs(d).max()


@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_matrix_is_the_blocks_multiplied_out(operator_cloud, mode):
    """system.S is bit for bit RA + 2 AZ RbarL AZ^T by symmetric_product,
    with RA = R_A / delta^2 and AZ = diag(A) zeta built afresh; in reduced
    mode it is RA."""
    cloud = operator_cloud
    system = assemble(cloud, mode=mode)
    RA = interior_laplacian(cloud)
    RA.data *= 1.0 / (cloud.delta * cloud.delta)
    want = RA
    if mode == "full":
        AZ = sparse.diags(cloud.A) @ system.coupling.zeta
        want = (RA + 2.0 * symmetric_product(AZ, system.coupling.RbarL)).tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(system.S, name), getattr(want, name))


def test_solves_leave_the_matrix_unbuilt(medium_cloud):
    """The base and absorption solves apply the operator: neither system,
    nor the absorption model's base, multiplies S out.  S is built on first
    access and kept."""
    base = assemble(medium_cloud)
    assert solve_mean_zero(base).converged
    lam = assemble_lambda(medium_cloud, lam=1.0)
    assert solve_spd(lam).converged
    for system in (base, lam, lam.operator.blocks.base):
        assert "S" not in system.__dict__
    assert base.S is base.S and lam.S is lam.S


def _search_clouds():
    """hemisphere2 t=5, whose 15 boundary points are also cloud points, and
    hemisphere3 t=4 with interior point 7 duplicated before the boundary
    tail, with the number of distance-0 pairs each pair set must hold."""
    a = sample_case("hemisphere2", 5, 1)
    b = sample_case("hemisphere3", 4, 1)
    nb = b.n0 - b.m0
    b.points = np.vstack([b.points[:nb], b.points[7], b.points[nb:]])
    for cloud in (a, b):
        cloud.normals = get_case(cloud.case_name).conormal(cloud.boundary)
    return [(a, {"interior": 0, "cross": 15, "boundary": 0}),
            (b, {"interior": 1, "cross": 64, "boundary": 0})]


@pytest.mark.parametrize("cloud,zeros", _search_clouds(),
                         ids=["aliased_boundary", "duplicated_point"])
@pytest.mark.parametrize("search", ["interior", "cross", "boundary"])
def test_pair_search_matches_brute_force(cloud, zeros, search, profile):
    """pair_graph's one search gives the Kbar pattern of every pair within
    2 delta, with int32 indices in lexicographic order: the interior pairs
    i < j over all points (its upper triangle), the point-boundary pairs
    (its last m0 columns), and the boundary pairs k < l (the upper triangle
    of its trailing m0 x m0 block).  Their Kbar values equal a direct
    pair_eval on each pair's coordinates, and so do the zeta values that
    boundary_coupling normalizes.  Pairs within 1e-12 relative of the
    radius are left out of the comparison."""
    pairs, _ = pair_graph(cloud, profile=profile)
    nb = cloud.n0 - cloud.m0
    radius = 2.0 * cloud.delta
    points, targets = cloud.points, cloud.boundary
    if search == "interior":
        targets = points
        block = pairs.tocoo()
    elif search == "cross":
        block = pairs[:, nb:].tocoo()
    else:
        points = targets
        block = pairs[nb:, nb:].tocoo()
    upper = (block.row < block.col) if search != "cross" else slice(None)
    got, values = (block.row[upper], block.col[upper]), block.data[upper]
    dist = np.sqrt(((points[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2))
    clear = np.abs(dist - radius) > 1e-12 * radius
    inside = dist <= radius
    if search != "cross":
        inside = np.triu(inside, k=1)
    assert np.count_nonzero(inside & (dist == 0.0)) == zeros[search]
    want = np.nonzero(inside & clear)
    keep = clear[got[0], got[1]]
    for g, w in zip(got, want):
        assert g.dtype == np.int32
        assert np.array_equal(g[keep], w)
    disp = points[got[0]] - targets[got[1]]
    bar = pair_eval(profile, "bar", (disp**2).sum(axis=1), cloud.delta, cloud.m)
    assert np.array_equal(values, bar)
    if search == "cross":
        # unit weights: omega is the plain column sum of zeta
        rows, cols = got
        zeta = -(disp * cloud.normals[cols]).sum(axis=1) * bar
        omega = np.bincount(cols, weights=zeta, minlength=cloud.m0)
        unit = replace(cloud, A=np.ones(cloud.n0), L=np.ones(cloud.m0))
        coupling = boundary_coupling(unit, pairs)
        nz = zeta != 0.0
        assert np.array_equal(coupling.omega_hat, omega)
        got_zeta = coupling.zeta.tocoo()
        assert np.array_equal(got_zeta.row, rows[nz])
        assert np.array_equal(got_zeta.col, cols[nz])
        assert np.array_equal(got_zeta.data, zeta[nz] / omega[cols[nz]])


def consistency_residual(system, u, X):
    """tau_X = |(S u - rhs) / A| over the points X in the A-weighted norm,
    over |rhs / A| in that norm over all points."""
    A = system.A
    R = (system.operator @ u - system.rhs) / A
    return float(np.sqrt(A[X] @ R[X] ** 2 / (A @ (system.rhs / A) ** 2)))


def test_boundary_layer_residual_falls_with_the_correction():
    """The consistency residual of the exact solution over the boundary
    layer, the points with a boundary point within 2 delta (a stored entry
    in their row of pairs[:, n0 - m0:]), the rest being the interior.  The
    full model's layer residual falls as delta does, and at t=80 it is at
    most 0.4 x the reduced model's: the boundary terms the reduced model
    drops are what makes the layer consistent.  With today's star weights
    the hemisphere2 medians over seeds 1-3 read 0.0780, 0.0650, 0.0441 and
    0.0348 at t = 20, 40, 60 and 80 in full mode, 0.1478 at t=80 reduced;
    the interior reads 0.0764 to 0.0904 at every t, held flat by the
    weights' deficit in sum A."""
    case = get_case("hemisphere2")
    ts = (20, 40, 60, 80)
    taus = {}
    for t in ts:
        for seed in (1, 2, 3):
            cloud = build_cloud(case, t, seed)
            u = case.exact_u(cloud.points)
            for mode in ("full", "reduced") if t == ts[-1] else ("full",):
                system = assemble(cloud, mode=mode)
                tail = system.pairs[:, cloud.n0 - cloud.m0:]
                layer = np.diff(tail.indptr) > 0
                taus.setdefault((mode, t), []).append(
                    consistency_residual(system, u, layer))
    median = {key: float(np.median(v)) for key, v in taus.items()}
    full = [median["full", t] for t in ts]
    assert all(b < a for a, b in zip(full, full[1:])), full
    assert median["full", ts[-1]] <= 0.4 * median["reduced", ts[-1]]
