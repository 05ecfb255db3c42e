"""TAGE: TAgged GEometric-history-length branch predictor.

A from-scratch implementation of Seznec & Michaud's TAGE, the baseline
predictor of the paper.  It follows the CBP-2016 TAGE-SC-L structure at
the level the paper depends on: a tagless bimodal base, a set of
partially tagged tables indexed with geometrically increasing folded
global history, usefulness counters with periodic aging, weak-entry
``use_alt`` filtering, and allocation on mispredictions.

Three storage presets mirror the paper's setups:

* :func:`TageConfig.kb8` — the CBPw-8KB-category TAGE (~7.1 KB), the
  default baseline everywhere.
* :func:`TageConfig.kb9` — iso-storage scaled TAGE for Figure 14A.
* :func:`TageConfig.kb64` — the CBPw-64KB-category TAGE (~57 KB) for
  Figure 14B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.predictors.base import GlobalPredictor, Prediction
from repro.predictors.history import FoldedHistory, GlobalHistory

__all__ = ["TageTableConfig", "TageConfig", "TagePredictor", "TageLookup"]


@dataclass(frozen=True, slots=True)
class TageTableConfig:
    """Geometry of one tagged TAGE table."""

    history_length: int
    log_entries: int
    tag_bits: int

    def __post_init__(self) -> None:
        if self.history_length <= 0:
            raise ConfigError(f"history_length must be positive: {self.history_length}")
        if not 4 <= self.log_entries <= 20:
            raise ConfigError(f"log_entries out of range: {self.log_entries}")
        if not 4 <= self.tag_bits <= 16:
            raise ConfigError(f"tag_bits out of range: {self.tag_bits}")

    @property
    def entries(self) -> int:
        return 1 << self.log_entries

    @property
    def entry_bits(self) -> int:
        # 3-bit signed counter + 2-bit usefulness + tag.
        return 3 + 2 + self.tag_bits


def _geometric_lengths(minimum: int, maximum: int, count: int) -> tuple[int, ...]:
    """Seznec's geometric history-length series, deduplicated upward."""
    if count == 1:
        return (maximum,)
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths: list[int] = []
    for i in range(count):
        value = int(minimum * ratio**i + 0.5)
        if lengths and value <= lengths[-1]:
            value = lengths[-1] + 1
        lengths.append(value)
    return tuple(lengths)


@dataclass(frozen=True)
class TageConfig:
    """Full TAGE geometry plus training hyper-parameters."""

    name: str
    bimodal_log: int
    tables: tuple[TageTableConfig, ...]
    counter_bits: int = 3
    useful_bits: int = 2
    use_alt_bits: int = 4
    u_reset_period: int = 1 << 18
    path_bits: int = 16

    def __post_init__(self) -> None:
        if not self.tables:
            raise ConfigError("TAGE needs at least one tagged table")
        lengths = [t.history_length for t in self.tables]
        if lengths != sorted(lengths) or len(set(lengths)) != len(lengths):
            raise ConfigError("table history lengths must strictly increase")
        if not 1 <= self.bimodal_log <= 24:
            raise ConfigError(f"bimodal_log out of range: {self.bimodal_log}")

    @property
    def max_history(self) -> int:
        return self.tables[-1].history_length

    def storage_bits(self) -> int:
        """Bimodal plus tagged-table storage, in bits."""
        bits = (1 << self.bimodal_log) * 2
        bits += sum(t.entries * t.entry_bits for t in self.tables)
        return bits

    def storage_kb(self) -> float:
        return self.storage_bits() / 8192.0

    @classmethod
    def kb8(cls) -> "TageConfig":
        """~7.1 KB TAGE matching the paper's CBPw-8KB baseline."""
        lengths = _geometric_lengths(4, 130, 7)
        tags = (7, 7, 8, 8, 9, 10, 11)
        tables = tuple(
            TageTableConfig(history_length=length, log_entries=9, tag_bits=tag)
            for length, tag in zip(lengths, tags)
        )
        return cls(name="tage-7.1kb", bimodal_log=12, tables=tables)

    @classmethod
    def kb9(cls) -> "TageConfig":
        """Iso-storage scaled TAGE (~9 KB) for the Figure 14A comparison.

        Spends the extra ~1.9 KB the local predictor + repair would cost
        on a bigger bimodal and an eighth tagged table.
        """
        lengths = _geometric_lengths(4, 170, 8)
        tags = (7, 7, 8, 8, 9, 10, 11, 12)
        tables = tuple(
            TageTableConfig(history_length=length, log_entries=9, tag_bits=tag)
            for length, tag in zip(lengths, tags)
        )
        return cls(name="tage-9kb", bimodal_log=13, tables=tables)

    @classmethod
    def kb64(cls) -> "TageConfig":
        """~57 KB TAGE from the CBPw-64KB category, for Figure 14B."""
        lengths = _geometric_lengths(4, 360, 12)
        tags = (8, 8, 9, 9, 10, 10, 11, 12, 12, 13, 14, 15)
        tables = tuple(
            TageTableConfig(history_length=length, log_entries=11, tag_bits=tag)
            for length, tag in zip(lengths, tags)
        )
        return cls(name="tage-57kb", bimodal_log=14, tables=tables)


@dataclass(slots=True)
class TageLookup:
    """Private lookup payload threaded from ``lookup`` to ``train``.

    ``indices``/``tags`` are the per-table values computed once at
    lookup time; ``train``/``_allocate`` reuse them instead of
    re-hashing (the history has moved on by train time, so re-hashing
    would also be *wrong*, not merely slow).
    """

    indices: list[int]
    tags: list[int]
    provider: int  # table index, or -1 for bimodal
    provider_pred: bool
    alt_pred: bool
    alt_table: int  # table of the alternate prediction, -1 for bimodal
    bimodal_index: int
    bimodal_pred: bool
    weak_provider: bool  # provider entry looked newly allocated


class TagePredictor(GlobalPredictor):
    """The TAGE predictor proper.

    The object owns its :class:`~repro.predictors.history.GlobalHistory`
    (with one index fold and two tag folds per table registered on it),
    so checkpoint/recover through the base-class API keeps folds
    consistent.
    """

    #: ``lookup`` only reads table/history state (see the provider scan)
    #: — the generic engine depends on this to re-run it after a
    #: declined :meth:`spec_resolve_correct`.
    pure_lookup = True

    def __init__(self, config: TageConfig | None = None, seed: int = 0x5EED) -> None:
        self.config = config = config if config is not None else TageConfig.kb8()
        super().__init__(
            GlobalHistory(max_length=config.max_history, path_bits=config.path_bits)
        )
        self.name = config.name

        self._bim_mask = (1 << config.bimodal_log) - 1
        self._bimodal = [2] * (1 << config.bimodal_log)

        self._ctr: list[list[int]] = []
        self._tag: list[list[int]] = []
        self._u: list[list[int]] = []
        #: Flat per-table constants consumed by the lookup loop:
        #: (log, path_mask, pc_shift, index_slot, tag0_slot, tag1_slot,
        #: index_mask, tag_mask), where the slots index the history's
        #: ``fold_comps`` flat list (folds holding equal values share a
        #: slot, so each table reads its folds' own slots).
        self._lookup_params: list[
            tuple[int, int, int, int, int, int, int, int]
        ] = []
        register = self.history.register_fold
        for t, table in enumerate(config.tables):
            entries = table.entries
            self._ctr.append([0] * entries)  # signed: -4..3 (3-bit)
            self._tag.append([0] * entries)
            self._u.append([0] * entries)
            length = table.history_length
            index_fold = register(FoldedHistory(length, table.log_entries))
            tag_fold0 = register(FoldedHistory(length, table.tag_bits))
            tag_fold1 = register(FoldedHistory(length, max(table.tag_bits - 1, 1)))
            self._lookup_params.append(
                (
                    table.log_entries,
                    (1 << min(length, 16)) - 1,
                    table.log_entries - (t % 3) - 1,
                    index_fold.slot,
                    tag_fold0.slot,
                    tag_fold1.slot,
                    entries - 1,
                    (1 << table.tag_bits) - 1,
                )
            )
        self._fold_comps = self.history.fold_comps

        self._ctr_max = (1 << (config.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (config.counter_bits - 1))
        self._u_max = (1 << config.useful_bits) - 1
        self._use_alt = 1 << (config.use_alt_bits - 1)
        self._use_alt_max = (1 << config.use_alt_bits) - 1
        self._updates_since_reset = 0
        self._rng_state = seed & 0xFFFFFFFF
        self._n_tables = len(config.tables)

    # ----------------------------------------------------------------- #
    # hashing

    def _rand(self) -> int:
        """Small deterministic LCG for allocation tie-breaking."""
        self._rng_state = (self._rng_state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._rng_state >> 16

    # ----------------------------------------------------------------- #
    # prediction

    def lookup(self, pc: int) -> Prediction:
        n = self._n_tables
        # Index/tag hashing fused with the provider scan: one top-down
        # pass over flat per-table constants, reading fold state by slot
        # from the history's flat list.  Hashing stops as soon as the
        # alternate provider is found — entries below it are
        # never consulted by prediction, training, or allocation, so
        # their slots legitimately stay zero.
        comps = self._fold_comps
        phist = self.history.phist
        pc_bits = pc >> 2
        indices = [0] * n
        tags = [0] * n
        table_tags = self._tag
        params = self._lookup_params
        provider = -1
        alt_table = -1
        for t in range(n - 1, -1, -1):
            log, path_mask, pc_shift, islot, s0, s1, imask, tmask = params[t]
            path = phist & path_mask
            path ^= path >> log
            index = (pc_bits ^ (pc_bits >> pc_shift) ^ comps[islot] ^ path) & imask
            tag = (pc_bits ^ comps[s0] ^ (comps[s1] << 1)) & tmask
            indices[t] = index
            tags[t] = tag
            if table_tags[t][index] == tag:
                if provider < 0:
                    provider = t
                else:
                    alt_table = t
                    break

        bim_index = pc_bits & self._bim_mask
        bim_pred = self._bimodal[bim_index] >= 2

        alt_pred = (
            self._ctr[alt_table][indices[alt_table]] >= 0
            if alt_table >= 0
            else bim_pred
        )
        if provider >= 0:
            ctr = self._ctr[provider][indices[provider]]
            provider_pred = ctr >= 0
            weak = ctr in (-1, 0) and self._u[provider][indices[provider]] == 0
            use_alt = weak and self._use_alt >= (self._use_alt_max + 1) // 2
            taken = alt_pred if use_alt else provider_pred
        else:
            provider_pred = bim_pred
            weak = False
            taken = bim_pred

        meta = TageLookup(
            indices=indices,
            tags=tags,
            provider=provider,
            provider_pred=provider_pred,
            alt_pred=alt_pred,
            alt_table=alt_table,
            bimodal_index=bim_index,
            bimodal_pred=bim_pred,
            weak_provider=weak,
        )
        return Prediction(pc=pc, taken=taken, meta=meta)

    # ----------------------------------------------------------------- #
    # training

    def _update_counter(self, table: int, index: int, taken: bool) -> None:
        ctr = self._ctr[table][index]
        if taken:
            if ctr < self._ctr_max:
                self._ctr[table][index] = ctr + 1
        elif ctr > self._ctr_min:
            self._ctr[table][index] = ctr - 1

    def _update_bimodal(self, index: int, taken: bool) -> None:
        value = self._bimodal[index]
        if taken:
            if value < 3:
                self._bimodal[index] = value + 1
        elif value > 0:
            self._bimodal[index] = value - 1

    def _allocate(self, meta: TageLookup, taken: bool) -> None:
        """On a misprediction, claim an entry with longer history."""
        start = meta.provider + 1
        if start >= self._n_tables:
            return
        # Random skew so allocation pressure spreads across tables.
        if self._n_tables - start > 1 and (self._rand() & 3) == 0:
            start += 1
            if start >= self._n_tables:
                return
        for t in range(start, self._n_tables):
            index = meta.indices[t]
            if self._u[t][index] == 0:
                self._ctr[t][index] = 0 if taken else -1
                self._tag[t][index] = meta.tags[t]
                return
        # No victim: age candidates so a future allocation succeeds.
        for t in range(start, self._n_tables):
            index = meta.indices[t]
            if self._u[t][index] > 0:
                self._u[t][index] -= 1

    def train(self, prediction: Prediction, taken: bool) -> None:
        meta: TageLookup = prediction.meta
        final_pred = prediction.taken

        self._updates_since_reset += 1
        if self._updates_since_reset >= self.config.u_reset_period:
            self._updates_since_reset = 0
            self._age_useful()

        if meta.provider >= 0:
            provider, index = meta.provider, meta.indices[meta.provider]
            # Track whether the alternate would have been the better call
            # for newly allocated entries.
            if meta.weak_provider and meta.provider_pred != meta.alt_pred:
                if meta.alt_pred == taken:
                    if self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                elif self._use_alt > 0:
                    self._use_alt -= 1
            self._update_counter(provider, index, taken)
            if meta.alt_table < 0:
                # The bimodal was the alternate; keep it trained too so
                # entries can be recycled without losing the base case.
                self._update_bimodal(meta.bimodal_index, taken)
            if meta.provider_pred != meta.alt_pred:
                u = self._u[provider][index]
                if meta.provider_pred == taken:
                    if u < self._u_max:
                        self._u[provider][index] = u + 1
                elif u > 0:
                    self._u[provider][index] = u - 1
        else:
            self._update_bimodal(meta.bimodal_index, taken)

        if final_pred != taken:
            self._allocate(meta, taken)

    def warm_update(self, pc: int, taken: bool) -> None:
        """Fused warm-window update: lookup + push + train in one pass.

        Bit-identical in effect to ``train(lookup(pc), taken)`` with the
        actual outcome pushed into the history in between (the committed
        state any exact run converges to), but with the Prediction and
        TageLookup payloads elided — the fast-forward warm window calls
        this once per conditional branch, where the allocation traffic
        of the generic path costs more than the table work itself.
        """
        n = self._n_tables
        comps = self._fold_comps
        phist = self.history.phist
        pc_bits = pc >> 2
        indices = [0] * n
        tags = [0] * n
        table_tags = self._tag
        params = self._lookup_params
        provider = -1
        alt_table = -1
        for t in range(n - 1, -1, -1):
            log, path_mask, pc_shift, islot, s0, s1, imask, tmask = params[t]
            path = phist & path_mask
            path ^= path >> log
            index = (pc_bits ^ (pc_bits >> pc_shift) ^ comps[islot] ^ path) & imask
            tag = (pc_bits ^ comps[s0] ^ (comps[s1] << 1)) & tmask
            indices[t] = index
            tags[t] = tag
            if table_tags[t][index] == tag:
                if provider < 0:
                    provider = t
                else:
                    alt_table = t
                    break

        bim_index = pc_bits & self._bim_mask
        bim_pred = self._bimodal[bim_index] >= 2
        alt_pred = (
            self._ctr[alt_table][indices[alt_table]] >= 0
            if alt_table >= 0
            else bim_pred
        )
        if provider >= 0:
            ctr = self._ctr[provider][indices[provider]]
            provider_pred = ctr >= 0
            weak = ctr in (-1, 0) and self._u[provider][indices[provider]] == 0
            use_alt = weak and self._use_alt >= (self._use_alt_max + 1) // 2
            final_pred = alt_pred if use_alt else provider_pred
        else:
            provider_pred = bim_pred
            weak = False
            final_pred = bim_pred

        self.history.push(pc, taken)

        self._updates_since_reset += 1
        if self._updates_since_reset >= self.config.u_reset_period:
            self._updates_since_reset = 0
            self._age_useful()

        if provider >= 0:
            index = indices[provider]
            if weak and provider_pred != alt_pred:
                if alt_pred == taken:
                    if self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                elif self._use_alt > 0:
                    self._use_alt -= 1
            ctr_row = self._ctr[provider]
            ctr = ctr_row[index]
            if taken:
                if ctr < self._ctr_max:
                    ctr_row[index] = ctr + 1
            elif ctr > self._ctr_min:
                ctr_row[index] = ctr - 1
            if alt_table < 0:
                self._update_bimodal(bim_index, taken)
            if provider_pred != alt_pred:
                u_row = self._u[provider]
                u = u_row[index]
                if provider_pred == taken:
                    if u < self._u_max:
                        u_row[index] = u + 1
                elif u > 0:
                    u_row[index] = u - 1
        else:
            self._update_bimodal(bim_index, taken)

        if final_pred != taken:
            start = provider + 1
            if start >= n:
                return
            if n - start > 1 and (self._rand() & 3) == 0:
                start += 1
                if start >= n:
                    return
            u_tables = self._u
            for t in range(start, n):
                index = indices[t]
                if u_tables[t][index] == 0:
                    self._ctr[t][index] = 0 if taken else -1
                    self._tag[t][index] = tags[t]
                    return
            for t in range(start, n):
                index = indices[t]
                if u_tables[t][index] > 0:
                    u_tables[t][index] -= 1

    def spec_resolve_correct(self, pc: int, taken: bool) -> bool:
        """Fused correct-path step: lookup, and if right, push + train.

        One provider scan serves both the prediction and the training
        updates, with the ``Prediction``/``TageLookup`` payloads elided —
        the same fusion as :meth:`warm_update`, but for the speculative
        committed path: the history push inserts the *predicted*
        direction, which on this path equals ``taken``.  Returns False
        with **no state changed** when the prediction is wrong (the scan
        is pure), so the caller can fall back to the generic
        lookup/checkpoint/push sequence and its misprediction episode;
        ``final_pred == taken`` on the True path means the allocation
        branch of :meth:`train` is unreachable and is dropped here.
        """
        n = self._n_tables
        comps = self._fold_comps
        phist = self.history.phist
        pc_bits = pc >> 2
        indices = [0] * n
        table_tags = self._tag
        params = self._lookup_params
        provider = -1
        alt_table = -1
        for t in range(n - 1, -1, -1):
            log, path_mask, pc_shift, islot, s0, s1, imask, tmask = params[t]
            path = phist & path_mask
            path ^= path >> log
            index = (pc_bits ^ (pc_bits >> pc_shift) ^ comps[islot] ^ path) & imask
            indices[t] = index
            if table_tags[t][index] == (
                (pc_bits ^ comps[s0] ^ (comps[s1] << 1)) & tmask
            ):
                if provider < 0:
                    provider = t
                else:
                    alt_table = t
                    break

        bim_index = pc_bits & self._bim_mask
        bim_pred = self._bimodal[bim_index] >= 2
        alt_pred = (
            self._ctr[alt_table][indices[alt_table]] >= 0
            if alt_table >= 0
            else bim_pred
        )
        if provider >= 0:
            ctr = self._ctr[provider][indices[provider]]
            provider_pred = ctr >= 0
            weak = ctr in (-1, 0) and self._u[provider][indices[provider]] == 0
            use_alt = weak and self._use_alt >= (self._use_alt_max + 1) // 2
            final_pred = alt_pred if use_alt else provider_pred
        else:
            provider_pred = bim_pred
            weak = False
            final_pred = bim_pred

        if final_pred != taken:
            return False

        self.history.push(pc, taken)

        self._updates_since_reset += 1
        if self._updates_since_reset >= self.config.u_reset_period:
            self._updates_since_reset = 0
            self._age_useful()

        if provider >= 0:
            index = indices[provider]
            if weak and provider_pred != alt_pred:
                if alt_pred == taken:
                    if self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                elif self._use_alt > 0:
                    self._use_alt -= 1
            ctr_row = self._ctr[provider]
            ctr = ctr_row[index]
            if taken:
                if ctr < self._ctr_max:
                    ctr_row[index] = ctr + 1
            elif ctr > self._ctr_min:
                ctr_row[index] = ctr - 1
            if alt_table < 0:
                self._update_bimodal(bim_index, taken)
            if provider_pred != alt_pred:
                u_row = self._u[provider]
                u = u_row[index]
                if provider_pred == taken:
                    if u < self._u_max:
                        u_row[index] = u + 1
                elif u > 0:
                    u_row[index] = u - 1
        else:
            self._update_bimodal(bim_index, taken)
        return True

    def fast_update(self, pc: int, taken: bool) -> None:
        """Fast-forward touch: bimodal only, no tagged-table work.

        The tagged tables are indexed by folded history, which the
        fast-forward engine does not maintain per branch (it replays
        the history tail just before the next detailed interval), so
        training them here would write to wrong slots.  The bimodal
        base is history-free and cheap — one mask and one counter.
        """
        self._update_bimodal((pc >> 2) & self._bim_mask, taken)

    def _age_useful(self) -> None:
        """Periodic graceful reset: halve every usefulness counter."""
        for table in self._u:
            for i, value in enumerate(table):
                if value:
                    table[i] = value >> 1

    def storage_bits(self) -> int:
        return self.config.storage_bits()
