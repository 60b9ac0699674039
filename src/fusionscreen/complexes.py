"""Synthetic protein-ligand complexes: generation, featurization, splits.

Complexes are random geometric scenes with a planted affinity label so that
training has a recoverable signal.  The planted label is

    f(geometry) = CONTACT_WEIGHT * (# protein-ligand atom pairs closer than
                  CONTACT_CUTOFF angstroms)
                - DISTANCE_WEIGHT * (mean over ligand atoms of the nearest
                  protein-atom distance)

clamped to [0, 12] pK, plus optional Gaussian noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

MANIFEST_VERSION = 1

PROTEIN, LIGAND = 0, 1

# planted-label constants (documented above)
CONTACT_WEIGHT = 0.2
DISTANCE_WEIGHT = 0.5
CONTACT_CUTOFF = 4.0


def pk_from_k(k: float) -> float:
    """pK = -log10(K) for a binding constant (Ki, Kd, or IC50) in molar."""
    if not k > 0:
        raise ValueError(f"binding constant must be positive, got {k}")
    return float(-np.log10(k))


@dataclass(frozen=True)
class AffinityLabel:
    k_value: float
    kind: str = "Kd"  # Ki | Kd | IC50, treated as equivalent labels

    @property
    def pk(self) -> float:
        return pk_from_k(self.k_value)


@dataclass(frozen=True)
class GenParams:
    """Generation knobs for synthetic complexes (desk-scale defaults)."""

    box_size: float = 16.0
    c_elem: int = 4
    n_protein: tuple[int, int] = (20, 60)
    n_ligand: tuple[int, int] = (5, 20)
    noise_sigma: float = 0.25

    def validate(self):
        if self.box_size <= 0:
            raise ValueError("box_size must be positive")
        if self.c_elem < 1:
            raise ValueError("c_elem must be >= 1")
        for lo, hi in (self.n_protein, self.n_ligand):
            if lo < 1 or hi < lo:
                raise ValueError("atom count ranges must satisfy 1 <= lo <= hi")


@dataclass
class SyntheticComplex:
    complex_id: str
    positions: np.ndarray      # [n, 3] angstroms, box-centred
    elements: np.ndarray       # [n] ints in [0, c_elem)
    roles: np.ndarray          # [n] ints, PROTEIN or LIGAND
    label_pk: float
    meta: dict = field(default_factory=dict)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def protein_mask(self) -> np.ndarray:
        return self.roles == PROTEIN

    def ligand_mask(self) -> np.ndarray:
        return self.roles == LIGAND


def planted_label(positions: np.ndarray, roles: np.ndarray) -> float:
    """Noise-free planted affinity f(geometry), clamped to [0, 12] pK."""
    prot = positions[roles == PROTEIN]
    lig = positions[roles == LIGAND]
    d = cdist(lig, prot)
    contacts = int((d < CONTACT_CUTOFF).sum())
    mean_nearest = float(d.min(axis=1).mean())
    f = CONTACT_WEIGHT * contacts - DISTANCE_WEIGHT * mean_nearest
    return float(np.clip(f, 0.0, 12.0))


def generate_complex(seed: int, gen_params: GenParams = GenParams()) -> SyntheticComplex:
    """Deterministic-in-seed synthetic complex with a planted label."""
    gp = gen_params
    gp.validate()
    rng = np.random.default_rng(seed)
    half = gp.box_size / 2.0
    n_prot = int(rng.integers(gp.n_protein[0], gp.n_protein[1] + 1))
    n_lig = int(rng.integers(gp.n_ligand[0], gp.n_ligand[1] + 1))
    prot = rng.uniform(-half, half, size=(n_prot, 3))
    # ligand: a tight cluster near a point inside the pocket region
    centre = rng.uniform(-half / 4, half / 4, size=3)
    lig = np.clip(centre + rng.normal(0.0, 1.8, size=(n_lig, 3)), -half, half)
    positions = np.vstack([prot, lig])
    roles = np.concatenate([
        np.full(n_prot, PROTEIN, dtype=np.int64),
        np.full(n_lig, LIGAND, dtype=np.int64),
    ])
    elements = rng.integers(0, gp.c_elem, size=n_prot + n_lig)
    label = planted_label(positions, roles)
    if gp.noise_sigma > 0:
        label += float(rng.normal(0.0, gp.noise_sigma))
    return SyntheticComplex(
        complex_id=f"cpx-{seed:08d}",
        positions=positions,
        elements=elements,
        roles=roles,
        label_pk=label,
        meta={"seed": int(seed), "gen_params": asdict(gp)},
    )


def generate_dataset(count: int, seed: int,
                     gen_params: GenParams = GenParams()) -> list[SyntheticComplex]:
    base = np.random.default_rng(seed).integers(0, 2 ** 31 - 1)
    return [generate_complex(int(base) + i, gen_params) for i in range(count)]


# ---------------------------------------------------------------------------
# voxel featurization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    extent: int = 16
    c_elem: int = 4
    box_size: float = 16.0

    def validate(self):
        if self.extent < 8:
            raise ValueError(f"grid extent must be >= 8, got {self.extent}")

    @property
    def channels(self) -> int:
        return 2 * self.c_elem


@dataclass
class VoxelGrid:
    occupancy: np.ndarray  # [2*c_elem, G, G, G]


def voxelize(c: SyntheticComplex, grid: GridConfig = GridConfig()) -> VoxelGrid:
    """Nearest-voxel assignment: each atom adds 1.0 to one cell.

    Channel index is role * c_elem + element.  Out-of-box atoms clip to the
    boundary voxels, so the grid sum always equals the atom count.
    """
    grid.validate()
    g = grid.extent
    occ = np.zeros((grid.channels, g, g, g))
    idx = np.floor((c.positions + grid.box_size / 2.0) / grid.box_size * g)
    idx = np.clip(idx, 0, g - 1).astype(np.int64)
    chan = c.roles * grid.c_elem + np.clip(c.elements, 0, grid.c_elem - 1)
    np.add.at(occ, (chan, idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)
    return VoxelGrid(occ)


def rotate_augment(v: VoxelGrid, seed: int, p: float = 0.1) -> VoxelGrid:
    """Random 90-degree rotations, each axis independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    rng = np.random.default_rng(seed)
    occ = v.occupancy
    # occupancy axes: 0 channel, then x=1, y=2, z=3
    planes = {"x": (2, 3), "y": (1, 3), "z": (1, 2)}
    for axis in ("x", "y", "z"):
        roll = rng.random()
        turns = int(rng.integers(1, 4))
        if roll < p:
            occ = np.rot90(occ, k=turns, axes=planes[axis])
    return VoxelGrid(np.ascontiguousarray(occ))


# ---------------------------------------------------------------------------
# graph featurization
# ---------------------------------------------------------------------------

THRESHOLD_RANGE = (1.2, 5.9)


@dataclass
class ComplexGraph:
    node_features: np.ndarray      # [n, c_elem + 1 + 3]
    covalent_edges: np.ndarray     # [e, 2] undirected pairs, i < j
    noncovalent_edges: np.ndarray  # [e, 2]
    covalent_dists: np.ndarray
    noncovalent_dists: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_features)


def build_graph(c: SyntheticComplex, cov_thresh: float = 2.24,
                noncov_thresh: float = 5.22,
                c_elem: int = 4, box_size: float = 16.0) -> ComplexGraph:
    """Edges from distance thresholds: covalent within a role, non-covalent
    across protein-ligand only."""
    lo, hi = THRESHOLD_RANGE
    for t in (cov_thresh, noncov_thresh):
        if not lo <= t <= hi:
            raise ValueError(f"threshold {t} outside searched range [{lo}, {hi}]")
    n = c.n_atoms
    feats = np.zeros((n, c_elem + 4))
    feats[np.arange(n), np.clip(c.elements, 0, c_elem - 1)] = 1.0
    feats[:, c_elem] = c.roles
    feats[:, c_elem + 1:] = c.positions / box_size + 0.5
    tree = cKDTree(c.positions)
    pairs = tree.query_pairs(max(cov_thresh, noncov_thresh), output_type="ndarray")
    cov, ncov = [], []
    if len(pairs):
        d = np.linalg.norm(c.positions[pairs[:, 0]] - c.positions[pairs[:, 1]], axis=1)
        same_role = c.roles[pairs[:, 0]] == c.roles[pairs[:, 1]]
        cov_mask = same_role & (d <= cov_thresh)
        ncov_mask = ~same_role & (d <= noncov_thresh)
        cov = [pairs[cov_mask], d[cov_mask]]
        ncov = [pairs[ncov_mask], d[ncov_mask]]
    empty_e = np.zeros((0, 2), dtype=np.int64)
    return ComplexGraph(
        node_features=feats,
        covalent_edges=cov[0] if len(cov) else empty_e,
        noncovalent_edges=ncov[0] if len(ncov) else empty_e,
        covalent_dists=cov[1] if len(cov) else np.zeros(0),
        noncovalent_dists=ncov[1] if len(ncov) else np.zeros(0),
    )


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def quintile_split(dataset: list, holdout_fraction: float, seed: int = 0,
                   key=lambda c: c.label_pk,
                   id_key=lambda c: c.complex_id) -> tuple[list, list]:
    """Stratified holdout: sort by label, cut 5 equal-count buckets, withdraw
    ``holdout_fraction`` of each (rounded to nearest, ties toward fewer)."""
    if len(dataset) < 10:
        raise ValueError(f"dataset of {len(dataset)} too small for quintile split")
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout fraction {holdout_fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    order = sorted(range(len(dataset)),
                   key=lambda i: (key(dataset[i]), id_key(dataset[i])))
    buckets = np.array_split(np.asarray(order), 5)
    if min(len(b) for b in buckets) == 0:
        raise ValueError("dataset too small to populate 5 quintile buckets")
    train_idx, val_idx = [], []
    for bucket in buckets:
        # round half down: ties go toward the smaller validation set
        n_hold = int(np.ceil(holdout_fraction * len(bucket) - 0.5))
        chosen = set(rng.choice(bucket, size=n_hold, replace=False).tolist())
        val_idx.extend(i for i in bucket if i in chosen)
        train_idx.extend(i for i in bucket if i not in chosen)
    return [dataset[i] for i in train_idx], [dataset[i] for i in val_idx]


# ---------------------------------------------------------------------------
# dataset manifest (line-oriented JSON, one complex per line)
# ---------------------------------------------------------------------------

def save_dataset(path, complexes: list[SyntheticComplex],
                 split_tags: dict[str, str] | None = None) -> None:
    split_tags = split_tags or {}
    with open(path, "w") as f:
        f.write(json.dumps({"kind": "complex-manifest",
                            "version": MANIFEST_VERSION}) + "\n")
        for c in complexes:
            rec = {
                "id": c.complex_id,
                "positions": c.positions.tolist(),
                "elements": c.elements.tolist(),
                "roles": c.roles.tolist(),
                "label_pk": c.label_pk,
                "split": split_tags.get(c.complex_id, ""),
                "meta": c.meta,
            }
            f.write(json.dumps(rec) + "\n")


def load_dataset(path) -> tuple[list[SyntheticComplex], dict[str, str]]:
    complexes, tags = [], {}
    with open(Path(path)) as f:
        header = json.loads(f.readline())
        if header.get("kind") != "complex-manifest":
            raise ValueError(f"{path}: not a complex manifest")
        if header.get("version") != MANIFEST_VERSION:
            raise ValueError(f"{path}: unsupported manifest version")
        for line in f:
            rec = json.loads(line)
            complexes.append(SyntheticComplex(
                complex_id=rec["id"],
                positions=np.asarray(rec["positions"], dtype=np.float64),
                elements=np.asarray(rec["elements"], dtype=np.int64),
                roles=np.asarray(rec["roles"], dtype=np.int64),
                label_pk=float(rec["label_pk"]),
                meta=rec.get("meta", {}),
            ))
            if rec.get("split"):
                tags[rec["id"]] = rec["split"]
    return complexes, tags
