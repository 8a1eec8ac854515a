"""Bit-exact repair refinement on top of MILR's algebraic recovery.

MILR's parameter solvers restore a corrupted layer to within solver precision
(~1e-7 relative), which passes detection but is not bit-identical to the
original weights.  For the memory-error fault model the service runtime can do
better: a corrupted word differs from its golden value only in the flipped
bits, so the golden word is *reachable* from the stored corrupted word by
flipping a small number of bits back.

The refinement therefore works per weight:

1. if the stored word already agrees with the solver's recovered estimate
   (within tolerance), keep the stored word -- it is bit-identical golden data;
2. otherwise search the words reachable from the stored word by flipping up to
   ``max_flips`` bits and take the one closest to the solver estimate;
3. verify the resulting array against the layer's golden fingerprint (stored
   in error-resistant memory at initialization).  Only a fingerprint match
   promotes the refined array; otherwise the solver's estimate is kept, which
   degrades gracefully to MILR's usual approximate recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from repro.core.checkpoint import weight_fingerprint
from repro.crc.crc32 import crc32_bytes, crc8_bytes
from repro.crc.twod import CRCCode2D, TwoDimensionalCRC
from repro.types import BITS_PER_WEIGHT, FLOAT_DTYPE

__all__ = [
    "MAX_CRC_SUSPECTS",
    "RepairOutcome",
    "snap_to_bit_flips",
    "sparse_kernel_repair",
    "sparse_bias_repair",
    "crc_guided_kernel_repair",
    "estimate_guided_repair",
    "refine_recovered_weights",
]


def _flip_mask_tiers(max_flips: int) -> list[np.ndarray]:
    """XOR-mask arrays grouped by flip count: ``[1-bit masks, 2-bit masks, ...]``.

    Tiers matter: candidates from fewer simultaneous flips are searched (and
    accepted) first, because under the memory-error model a word is far more
    likely to have suffered one flip than two, and a 2-flip mask can otherwise
    fabricate a value a few ULP closer to the (approximate) solver estimate
    than the true golden word.
    """
    singles = [np.uint32(1) << np.uint32(k) for k in range(BITS_PER_WEIGHT)]
    tiers = []
    for count in range(1, max_flips + 1):
        tier = []
        for combo in combinations(singles, count):
            mask = np.uint32(0)
            for bit in combo:
                mask ^= bit
            tier.append(mask)
        tiers.append(np.asarray(tier, dtype=np.uint32))
    return tiers


#: Mask tables are tiny (32 entries for 1 flip, 496 for 2), so cache them.
_MASK_CACHE: dict[int, list[np.ndarray]] = {}

#: Network weights are O(1); a word beyond this magnitude can only be
#: exponent-bit corruption and is treated as a definite repair suspect.
_EXTREME_MAGNITUDE = 1e8

#: The CRC-guided search refuses a kernel whose first localization flags more
#: suspects than this.  Each suspect may try up to 528 bit-flip candidates at
#: two pure-Python CRC passes each, all under the model lock, and on a
#: 3x3x8x8 kernel with CRC-8 groups of 4 no search over more suspects ended
#: bit-exact.  Such corruption is left to the solver strategies.
MAX_CRC_SUSPECTS = 32


def _masks_for(max_flips: int) -> list[np.ndarray]:
    cached = _MASK_CACHE.get(max_flips)
    if cached is None:
        cached = _flip_mask_tiers(max_flips)
        _MASK_CACHE[max_flips] = cached
    return cached


@dataclass(frozen=True)
class RepairOutcome:
    """Result of one bit-exact repair attempt on a layer."""

    #: Whether the refined weights matched the stored golden fingerprint and
    #: were written back (bit-exact restoration).
    bit_exact: bool
    #: Number of weights snapped back through the bit-flip search.
    snapped_weights: int
    #: Number of weights kept verbatim from the (mostly clean) stored array.
    kept_weights: int
    #: Which repair-chain strategy produced this outcome ("checkpoint_free",
    #: "residual_estimate", "solver_snap", "estimate_guided", "remap"); ""
    #: for low-level helpers that do not know their caller.
    strategy: str = ""


def snap_to_bit_flips(
    corrupted: np.ndarray,
    estimate: np.ndarray,
    rtol: float = 1e-3,
    atol: float = 1e-5,
    max_flips: int = 2,
) -> tuple[np.ndarray, int, int]:
    """Refine a solver estimate using the stored corrupted bit patterns.

    Returns ``(refined, snapped, kept)`` where ``refined`` has the same shape
    as ``estimate``; weights whose stored word already agrees with the
    estimate are kept bit-verbatim (``kept``), disagreeing words are replaced
    by their closest reachable bit-flip candidate when one lies within
    tolerance of the estimate (``snapped``), and the solver estimate is used
    as a last resort.
    """
    corrupted = np.ascontiguousarray(corrupted, dtype=FLOAT_DTYPE)
    estimate = np.asarray(estimate, dtype=FLOAT_DTYPE)
    if corrupted.shape != estimate.shape:
        raise ValueError(
            f"corrupted shape {corrupted.shape} != estimate shape {estimate.shape}"
        )
    flat_corrupted = corrupted.ravel()
    flat_estimate = estimate.astype(np.float64).ravel()
    tolerance = atol + rtol * np.abs(flat_estimate)
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(flat_corrupted.astype(np.float64) - flat_estimate)
        # NaN/Inf corrupted words produce non-finite deviations and are never kept.
        keep = np.isfinite(deviation) & (deviation <= tolerance)
    refined = np.where(keep, flat_corrupted, estimate.ravel()).astype(FLOAT_DTYPE)
    suspects = np.flatnonzero(~keep)
    tiers = _masks_for(max_flips)
    snapped = 0
    for index in suspects:
        word = flat_corrupted[index : index + 1].view(np.uint32)[0]
        for masks in tiers:
            candidates = (masks ^ word).view(FLOAT_DTYPE)
            with np.errstate(invalid="ignore", over="ignore"):
                distances = np.abs(candidates.astype(np.float64) - flat_estimate[index])
                within = np.isfinite(distances) & (distances <= tolerance[index])
            if np.any(within):
                best = np.flatnonzero(within)[np.argmin(distances[within])]
                refined[index] = candidates[best]
                snapped += 1
                break
    return refined.reshape(estimate.shape), snapped, int(keep.sum())


def sparse_kernel_repair(
    patches: np.ndarray,
    outputs: np.ndarray,
    corrupted_matrix: np.ndarray,
    rtol: float = 1e-3,
    atol: float = 1e-5,
    max_support: int = 8,
) -> tuple[np.ndarray, bool]:
    """Residual-guided sparse repair of a convolution kernel matrix.

    Deep convolution layers can defeat MILR's full kernel solve: the golden
    input patches span only the degrees of freedom that survive the upstream
    linearized network, so the patch matrix ``A`` is rank-deficient and the
    least-squares solution is a minimum-norm kernel far from the golden one.
    Memory errors, however, are *sparse*: the corrupted kernel differs from
    golden in a handful of coordinates.  Writing ``B - A @ C = A @ (G - C)``
    per output filter, the correction ``G - C`` is found by orthogonal
    matching pursuit over the kernel rows -- a tiny well-conditioned solve on
    the identified support instead of an under-determined full solve.

    Args:
        patches: Golden input patches, shape ``(positions, receptive)``.
        outputs: Golden layer output, shape ``(positions, filters)``.
        corrupted_matrix: Stored (corrupted) kernel matrix
            ``(receptive, filters)``.
        rtol / atol: Residual tolerances deciding when a filter is explained.
        max_support: Maximum corrupted rows per filter the pursuit searches.

    Returns:
        ``(estimate, complete)`` where ``estimate`` is ``corrupted_matrix``
        with sparse corrections applied and ``complete`` says every suspect
        filter's residual was driven below tolerance.  The pursuit stops at
        the first filter it cannot explain; the estimate is then partial.
    """
    A = np.asarray(patches, dtype=np.float64)
    B = np.asarray(outputs, dtype=np.float64)
    C_raw = np.asarray(corrupted_matrix, dtype=np.float64)
    # Non-finite or extreme corrupted words (exponent-bit damage) poison the
    # residual algebra and would cancel catastrophically in ``C + delta``
    # arithmetic; zero them out and force their rows onto the support, where
    # the golden value is solved for *directly*.
    suspicious = ~np.isfinite(C_raw) | (np.abs(C_raw) > _EXTREME_MAGNITUDE)
    C = np.where(suspicious, 0.0, C_raw)
    residual = B - A @ C
    estimate = np.where(suspicious, 0.0, C_raw).astype(FLOAT_DTYPE)
    col_norms = np.sqrt(np.maximum(np.einsum("mr,mr->r", A, A), 1e-30))

    def _fit(support: list[int], f: int) -> tuple[np.ndarray, np.ndarray]:
        """Solve for the golden values of the support rows of filter ``f``.

        The support columns are excluded from the known-rows product so the
        solve returns golden coordinates directly -- no ``corrupted + delta``
        sum that loses every significant digit when the corrupted word is
        astronomically large.
        """
        known = C[:, f].copy()
        known[support] = 0.0
        target = B[:, f] - A @ known
        sub = A[:, support]
        values, *_ = np.linalg.lstsq(sub, target, rcond=None)
        return values, target - sub @ values

    for f in range(B.shape[1]):
        tol = atol + rtol * max(float(np.max(np.abs(B[:, f]))), 1.0)
        forced = [int(r) for r in np.flatnonzero(suspicious[:, f])]
        if not forced and float(np.max(np.abs(residual[:, f]))) <= tol:
            continue
        support = list(forced)
        values = np.zeros(0)
        fitted = residual[:, f]
        while True:
            if support:
                values, fitted = _fit(support, f)
            if float(np.max(np.abs(fitted))) <= tol:
                break
            if len(support) >= max_support:
                break
            scores = np.abs(A.T @ fitted) / col_norms
            scores[support] = -1.0
            support.append(int(np.argmax(scores)))
        if float(np.max(np.abs(fitted))) > tol:
            return estimate, False
        for row, value in zip(support, values):
            estimate[row, f] = np.float32(value)
    return estimate, True


def crc_guided_kernel_repair(
    corrupted: np.ndarray,
    codes: "list[CRCCode2D]",
    crc: TwoDimensionalCRC,
    max_flips: int = 2,
    max_rounds: int = 8,
) -> tuple[np.ndarray, bool]:
    """Bit-exact kernel repair from the stored 2-D CRC codes alone.

    For layers using partial recoverability the stored row/column group CRCs
    both *localize* corrupted weights and *verify* candidate corrections: a
    suspect word is replaced by the bit-flip candidate that makes both of its
    groups match their stored codes again.  Like the bias-sum repair this
    needs no golden activations, so it works even while neighbouring layers
    are corrupted.  Repair iterates because the suspect intersection can
    contain false positives that disappear once the real corruptions are
    fixed.

    Returns ``(repaired, complete)``; ``complete`` means the final
    localization pass found no remaining suspects.  Callers should still
    confirm against the golden weight fingerprint (CRC collisions are
    unlikely, not impossible).  A first localization with more than
    :data:`MAX_CRC_SUSPECTS` suspects returns the corrupted kernel unsearched
    and incomplete.
    """
    repaired = np.ascontiguousarray(corrupted, dtype=FLOAT_DTYPE).copy()
    crc_fn = crc8_bytes if crc.crc_bits == 8 else crc32_bytes
    group = crc.group_size
    f2_size, z_size, y_size = repaired.shape[1:]
    tiers = _masks_for(max_flips)
    suspects = crc.localize_kernel(repaired, codes)
    if int(np.count_nonzero(suspects)) > MAX_CRC_SUSPECTS:
        return repaired, False
    for _ in range(max_rounds):
        if not suspects.any():
            return repaired, True
        progress = False
        for f1, f2, z, y in zip(*np.nonzero(suspects)):
            code = codes[int(f1) * f2_size + int(f2)]
            stored_row = int(code.row_codes[z, y // group])
            stored_col = int(code.col_codes[z // group, y])
            row_lo = (y // group) * group
            row_group = repaired[f1, f2, z, row_lo : row_lo + group].copy()
            col_lo = (z // group) * group
            col_group = repaired[f1, f2, col_lo : col_lo + group, y].copy()
            word = repaired[f1, f2, z, y : y + 1].view(np.uint32)[0]
            fixed = False
            for masks in tiers:
                for candidate in (masks ^ word).view(FLOAT_DTYPE):
                    row_group[y - row_lo] = candidate
                    if crc_fn(row_group) != stored_row:
                        continue
                    col_group[z - col_lo] = candidate
                    if crc_fn(col_group) != stored_col:
                        continue
                    repaired[f1, f2, z, y] = candidate
                    progress = True
                    fixed = True
                    break
                if fixed:
                    break
        if not progress:
            break
        suspects = crc.localize_kernel(repaired, codes)
    return repaired, not suspects.any()


def sparse_bias_repair(
    corrupted: np.ndarray,
    stored_checkpoint: np.ndarray,
    uses_sum: bool,
    golden_fingerprint: bytes,
    rtol: float = 1e-3,
    atol: float = 1e-5,
    max_flips: int = 2,
) -> "np.ndarray | None":
    """Self-contained bit-exact repair of a bias layer from its checkpoint.

    Bias layers are the one place MILR's stored detection reference fully
    determines the repair without touching any neighbouring layer: either the
    partial checkpoint *is* the golden bias vector
    (``bias_detection_uses_sum=False``), or it is the golden element sum, in
    which case the corrupted word and its flipped bits are found by searching
    the (word, bit-flip) candidates whose corrected sum matches the stored one
    -- confirmed by the golden fingerprint.  Being neighbour-independent, this
    breaks the mutual-dependency deadlock of a corrupted convolution/bias pair
    between the same two checkpoints.

    Returns the verified golden array, or ``None`` when no single-word
    candidate explains the checkpoint (e.g. several bias words corrupted).
    """
    corrupted = np.ascontiguousarray(corrupted, dtype=FLOAT_DTYPE)
    if not uses_sum:
        golden = np.asarray(stored_checkpoint, dtype=FLOAT_DTYPE).reshape(corrupted.shape)
        if weight_fingerprint(golden) == golden_fingerprint:
            return golden
        return None
    target = float(np.asarray(stored_checkpoint).ravel()[0])
    values = corrupted.astype(np.float64)
    finite = np.isfinite(values)
    nonfinite = np.flatnonzero(~finite)
    if nonfinite.size > 1:
        return None
    tolerance = max(atol, rtol * abs(target))
    words = np.asarray(nonfinite) if nonfinite.size else np.arange(corrupted.size)
    for index in words:
        # Sum of every *other* word, excluding ``index`` before summing --
        # subtracting it afterwards would cancel catastrophically when the
        # corrupted word is astronomically large (exponent-bit damage).
        others = values.copy()
        others[index] = 0.0
        base = float(others[np.isfinite(others)].sum())
        word = corrupted[index : index + 1].view(np.uint32)[0]
        for masks in _masks_for(max_flips):
            candidates = (masks ^ word).view(FLOAT_DTYPE)
            with np.errstate(invalid="ignore", over="ignore"):
                sums = base + candidates.astype(np.float64)
                plausible = np.isfinite(sums) & (np.abs(sums - target) <= tolerance)
            for candidate in candidates[plausible]:
                repaired = corrupted.copy()
                repaired[index] = candidate
                if weight_fingerprint(repaired) == golden_fingerprint:
                    return repaired
    return None


def estimate_guided_repair(
    corrupted: np.ndarray,
    estimate: np.ndarray,
    golden_fingerprint: bytes,
    atol: float = 1e-5,
    max_flips: int = 2,
    max_suspects: int = 4,
    candidates_per_word: int = 4,
    max_combos: int = 256,
) -> "np.ndarray | None":
    """Fingerprint-confirmed repair that tolerates a *noisy* solver estimate.

    Some recovery estimates carry noise far above the snap tolerances (e.g. a
    bias recovered through a dense-layer inversion), which defeats the strict
    keep/snap split of :func:`snap_to_bit_flips`.  This variant measures the
    estimate's own noise floor (median |stored - estimate| deviation), treats
    only clear outliers as corrupted, shortlists bit-flip candidates per
    outlier, and searches the small candidate product for the combination the
    golden fingerprint confirms.  All non-outlier words keep their stored bit
    patterns verbatim.

    Returns the verified golden array or ``None``.
    """
    corrupted = np.ascontiguousarray(corrupted, dtype=FLOAT_DTYPE)
    estimate = np.asarray(estimate, dtype=FLOAT_DTYPE)
    flat_corrupted = corrupted.ravel()
    flat_estimate = estimate.astype(np.float64).ravel()
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(flat_corrupted.astype(np.float64) - flat_estimate)
    deviation = np.where(np.isfinite(deviation), deviation, np.inf)
    finite = deviation[np.isfinite(deviation)]
    noise = float(np.median(finite)) if finite.size else 0.0
    threshold = max(atol, 10.0 * noise)
    suspects = np.flatnonzero(deviation > threshold)
    if suspects.size == 0 or suspects.size > max_suspects:
        return None
    tiers = _masks_for(max_flips)
    shortlists: list[list[np.float32]] = []
    for index in suspects:
        word = flat_corrupted[index : index + 1].view(np.uint32)[0]
        ranked: list[tuple[float, int, np.float32]] = []
        for tier_rank, masks in enumerate(tiers):
            candidates = (masks ^ word).view(FLOAT_DTYPE)
            with np.errstate(invalid="ignore", over="ignore"):
                distances = np.abs(candidates.astype(np.float64) - flat_estimate[index])
            plausible = np.isfinite(distances) & (distances <= threshold)
            for position in np.flatnonzero(plausible):
                ranked.append(
                    (float(distances[position]), tier_rank, candidates[position])
                )
        if not ranked:
            return None
        # Fewest flips first, then closest to the estimate.
        ranked.sort(key=lambda item: (item[1], item[0]))
        shortlists.append([item[2] for item in ranked[:candidates_per_word]])
    combos = 1
    for shortlist in shortlists:
        combos *= len(shortlist)
    if combos > max_combos:
        return None
    repaired = flat_corrupted.copy()
    for combo in product(*shortlists):
        for index, value in zip(suspects, combo):
            repaired[index] = value
        if weight_fingerprint(repaired.reshape(corrupted.shape)) == golden_fingerprint:
            return repaired.reshape(corrupted.shape)
    return None


def refine_recovered_weights(
    layer,
    corrupted: np.ndarray,
    golden_fingerprint: bytes,
    rtol: float = 1e-3,
    atol: float = 1e-5,
    max_flips: int = 2,
) -> RepairOutcome:
    """Attempt a verified bit-exact restoration of an already-recovered layer.

    ``layer`` must hold the solver's recovered estimate (i.e. this runs right
    after :meth:`MILRProtector.recover`); ``corrupted`` is the snapshot of the
    weights taken *before* recovery.  On fingerprint match the refined array
    is written back; otherwise the layer keeps the solver estimate.
    """
    estimate = layer.get_weights()
    refined, snapped, kept = snap_to_bit_flips(
        corrupted, estimate, rtol=rtol, atol=atol, max_flips=max_flips
    )
    if weight_fingerprint(refined) == golden_fingerprint:
        layer.set_weights(refined)
        return RepairOutcome(bit_exact=True, snapped_weights=snapped, kept_weights=kept)
    return RepairOutcome(bit_exact=False, snapped_weights=snapped, kept_weights=kept)
