"""Trace-guided specialization of the exact detailed engine.

The generic :class:`~repro.pipeline.core.PipelineModel` pays for
generality on every branch: attribute chains, telemetry checks, feature
branches for units/hierarchies/telemetry that a given (system, workload)
pair never takes.  This module removes that cost with a classic
guard/commit/abort scheme:

1. **Profile** — the driver runs a short prefix (a few thousand
   branches) under the generic engine and observes which paths are
   live: is there a local unit?  a cache hierarchy?  do records carry
   load addresses?
2. **Specialize** — from those observations it generates a straight-line
   Python step function (string template → ``ast.parse`` →
   ``compile`` → ``exec``) with dead feature branches removed, config
   constants inlined as literals, hot calls pre-bound to locals, and
   telemetry hooks elided entirely.
3. **Guard** — paths the profile declared dead are protected by runtime
   guards.  A record that needs a dead path raises :class:`GuardTripped`.
4. **Abort** — the driver checkpoints model + stream every
   ``checkpoint_interval`` branches; on a guard trip it restores the
   last checkpoint and finishes the run under the generic engine.
   Specialization is therefore *bit-identical by construction*: every
   committed branch is simulated either by the generic code or by a
   specialized path proven equivalent to it.

One template exists, for the stock no-unit TAGE system: the provider
scan, training updates, history push and the wrong-path replay of a
misprediction episode are all unrolled into generated straight-line
code with per-table constants inlined, and GHIST/PHIST plus every fold
register live in local variables that sync with the predictor objects
only around the (rare) generic mispredict lookup/train and at span
boundaries.  Every other system declines with a reason and runs on the
generic engine, whose own fused correct-path step
(:meth:`~repro.predictors.base.GlobalPredictor.spec_resolve_correct`)
already serves the other pure-lookup predictors.

This module is simulation code (no environment reads, no clocks);
whether to specialize is decided by
:func:`~repro.harness.scheduler.select_engine`.
"""

from __future__ import annotations

import ast
import copy
import hashlib
from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass

from repro.core.inflight import InflightBranch
from repro.errors import SimulationError, SpecializationError
from repro.memory.cache import Cache
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.core import PipelineModel
from repro.pipeline.stats import SimStats
from repro.predictors.base import GlobalPredictor
from repro.predictors.history import GlobalHistory
from repro.predictors.tage import TagePredictor
from repro.telemetry import TELEMETRY
from repro.trace.records import BranchKind, BranchRecord
from repro.trace.stream import TraceStream

__all__ = [
    "SPECIALIZE_VERSION",
    "DEFAULT_PROFILE_BRANCHES",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "GuardTripped",
    "TageGeometry",
    "SpecializationDecision",
    "CompiledEngine",
    "plan_specialization",
    "generate_engine_source",
    "load_engine",
    "run_specialized",
]

#: Bumped whenever codegen output could change for the same inputs.
#: Folded into both the engine cache key and the run manifest's engine
#: tag, so stale cached engines and stale cached *results* both miss.
SPECIALIZE_VERSION = 2

#: Generic-engine prefix observed before deciding what to specialize.
DEFAULT_PROFILE_BRANCHES = 2000

#: Committed branches between model/stream checkpoints inside the
#: specialized span; also the abort replay cost ceiling.
DEFAULT_CHECKPOINT_INTERVAL = 100_000


class GuardTripped(SpecializationError):
    """A specialized engine hit a path its profile declared dead.

    Raised *inside* generated code and caught by :func:`run_specialized`,
    which aborts back to the generic engine from the last checkpoint.
    Never escapes the driver.
    """

    def __init__(self, guard: str) -> None:
        super().__init__(f"specialization guard tripped: {guard}")
        self.guard = guard


# ------------------------------------------------------------------ #
# planning


@dataclass(frozen=True)
class TageGeometry:
    """Flattened TAGE + history structure consumed by the deep template.

    Everything the generated scan/train/push code needs as literals:
    per-table hash constants (mirroring ``TagePredictor._lookup_params``),
    per-fold update constants (mirroring ``GlobalHistory._fold_params``),
    and the scalar saturation bounds.  Plain ints and tuples only, so the
    geometry is hashable and reprs deterministically for fingerprints.
    """

    #: Per table: (log_entries, path_mask, pc_shift, index_slot,
    #: tag0_slot, tag1_slot, index_mask, tag_mask).
    tables: tuple[tuple[int, int, int, int, int, int, int, int], ...]
    #: Per fold: (slot, original_length, outpoint, compressed_length, mask).
    folds: tuple[tuple[int, int, int, int, int], ...]
    bim_mask: int
    ghist_mask: int
    phist_mask: int
    ctr_max: int
    ctr_min: int
    u_max: int
    use_alt_max: int
    use_alt_threshold: int
    u_reset_period: int


@dataclass(frozen=True)
class SpecializationDecision:
    """Everything codegen needs, observed from config + profile prefix.

    The tuple of fields *is* the specialization: two runs with equal
    decisions (and equal templates) produce byte-identical engines,
    which is what makes the on-disk engine cache sound.
    """

    template: str  #: ``"tage"``, the only template.
    has_loads: bool  #: Profile prefix contained records with load_addr.
    has_hierarchy: bool  #: A CacheHierarchy is attached.
    fetch_width: int
    frontend_depth: int
    sched_to_exec: int
    branch_exec_latency: int
    nonbranch_base_latency: int
    exec_jitter: int
    retire_width: int
    rob_entries: int
    btb_miss_penalty: int
    wrong_path: bool
    wrong_path_window: int
    wrong_path_max_branches: int
    resteer_penalty: int
    #: TAGE structure inlined by the template.
    tage: TageGeometry
    #: BTB hash geometry, inlined by the template.
    btb_ways: int = 0
    btb_set_bits: int = 0
    btb_set_mask: int = 0
    #: L1 data-cache geometry for the template's inlined hit probe
    #: (zeros when no hierarchy is attached).
    l1_line_shift: int = 0
    l1_set_mask: int = 0
    l1_latency: int = 0

    def fingerprint(self) -> str:
        """Stable digest over every field, for the engine cache key."""
        payload = repr(astuple(self)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def plan_specialization(
    model: PipelineModel, records: Sequence[BranchRecord], profiled: int
) -> tuple[SpecializationDecision | None, str | None]:
    """Decide whether (and how) to specialize ``model`` for ``records``.

    Returns ``(decision, None)`` when eligible, ``(None, reason)`` when
    the run must stay on the generic engine.  Eligibility is strict:
    any behaviour the templates cannot reproduce bit-for-bit disables
    specialization rather than risking drift.
    """
    if type(model) is not PipelineModel:
        return None, "model subclass"
    if model._tel.tracing:
        return None, "telemetry tracing active"
    baseline = model.baseline
    base_type = type(baseline)
    if base_type.checkpoint is not GlobalPredictor.checkpoint:
        return None, "predictor overrides checkpoint"
    if base_type.spec_push is not GlobalPredictor.spec_push:
        return None, "predictor overrides spec_push"
    if not baseline.pure_lookup:
        return None, "predictor lookup is not pure"
    if model.unit is not None:
        return None, "local unit present"
    # The template inlines TAGE's scan/train and the history push into
    # generated straight-line code, so it demands the exact stock
    # classes (a subclass could override any of the methods it elides).
    hierarchy = model.hierarchy
    if not (
        type(baseline) is TagePredictor
        and type(baseline.history) is GlobalHistory
        and type(model.btb) is BranchTargetBuffer
        and (
            hierarchy is None
            or (
                type(hierarchy) is CacheHierarchy
                and type(hierarchy.l1) is Cache
            )
        )
    ):
        return None, "not the stock TAGE system"
    cfg = model.config
    prefix = records[:profiled]
    history = baseline.history
    geometry = TageGeometry(
        tables=tuple(baseline._lookup_params),
        folds=tuple(history._fold_params),
        bim_mask=baseline._bim_mask,
        ghist_mask=history._ghist_mask,
        phist_mask=history._phist_mask,
        ctr_max=baseline._ctr_max,
        ctr_min=baseline._ctr_min,
        u_max=baseline._u_max,
        use_alt_max=baseline._use_alt_max,
        use_alt_threshold=(baseline._use_alt_max + 1) // 2,
        u_reset_period=baseline.config.u_reset_period,
    )

    return (
        SpecializationDecision(
            template="tage",
            has_loads=any(r.load_addr for r in prefix),
            has_hierarchy=model.hierarchy is not None,
            fetch_width=cfg.fetch_width,
            frontend_depth=cfg.frontend_depth,
            sched_to_exec=cfg.sched_to_exec,
            branch_exec_latency=cfg.branch_exec_latency,
            nonbranch_base_latency=cfg.nonbranch_base_latency,
            exec_jitter=cfg.exec_jitter,
            retire_width=cfg.retire_width,
            rob_entries=cfg.rob_entries,
            btb_miss_penalty=cfg.btb_miss_penalty,
            wrong_path=cfg.wrong_path,
            wrong_path_window=cfg.wrong_path_window,
            wrong_path_max_branches=cfg.wrong_path_max_branches,
            resteer_penalty=cfg.resteer_penalty,
            tage=geometry,
            btb_ways=model.btb.ways,
            btb_set_bits=model.btb._set_bits,
            btb_set_mask=model.btb._set_mask,
            l1_line_shift=(
                hierarchy.l1._line_shift if hierarchy is not None else 0
            ),
            l1_set_mask=(
                hierarchy.l1._set_mask if hierarchy is not None else 0
            ),
            l1_latency=(
                hierarchy.config.l1.latency if hierarchy is not None else 0
            ),
        ),
        None,
    )


# ------------------------------------------------------------------ #
# templates
#
# The template is a complete, parseable module defining
# ``specialized_step(model, stream, start, stop) -> int``.  Dunder
# names (``__FETCH_WIDTH__`` ...) are placeholders — legal identifiers,
# so the raw template stays ``ast.parse``-clean for simlint's template
# scanning (GEN001/DET001/SPEC001) — replaced with literals or code at
# generation time.  Every line mirrors a line of
# ``PipelineModel._issue``/``run_stream``; when editing it, diff it
# against the generic engine.

TAGE_STEP_TEMPLATE = '''\
def _resolve_key(entry):
    return entry[1]


def specialized_step(model, stream, start, stop):
    records = stream.records
    window_append = stream.window.append
    stream_recent = stream.recent
    baseline = model.baseline
    base_lookup = model._base_lookup
    hist_checkpoint = model._base_checkpoint
    hist_push = model._base_spec_push
    btb = model.btb
    btb_install = model._btb_install
    btb_pcs = btb._pcs
    btb_lru = btb._lru
    b_tick = btb._tick
    d_btb_hits = 0
    base_train = baseline.train
    age_useful = baseline._age_useful
    hist = baseline.history
    comps = hist.fold_comps
    ghist = hist.ghist
    phist = hist.phist
    use_alt = baseline._use_alt
    usr = baseline._updates_since_reset
    bim = baseline._bimodal
    __TAGE_BIND__
    __HIER_BIND__
    stats = model.stats
    rob = model._rob
    rob_append = rob.append
    rob_popleft = rob.popleft
    fe_cycle = model._fe_cycle
    last_alloc = model._last_alloc
    last_retire = model._last_retire
    rob_occupancy = model._rob_occupancy
    next_uid = model._next_uid
    d_instructions = 0
    d_branches = 0
    d_cond = 0
    d_taken = 0
    d_base_wrong = 0
    d_btb_misses = 0
    d_rob_stall = 0
    d_mispredictions = 0
    d_wp_branches = 0
    d_wp_mispredicts = 0
    for record in records[start:stop]:
        window_append(record)
        if rob and rob[0][0] <= fe_cycle:
            freed = 0
            while rob and rob[0][0] <= fe_cycle:
                freed += rob_popleft()[1]
            rob_occupancy -= freed
        group = record.inst_gap + 1
        fetch_cycles = -(-group // __FETCH_WIDTH__)
        fetch_cycle = fe_cycle + fetch_cycles - 1
        btb_bubble = 0
        if record.taken:
            __BTB_PROBE__
        alloc_cycle = fetch_cycle + __FRONTEND_DEPTH__
        if alloc_cycle < last_alloc:
            alloc_cycle = last_alloc
        while rob_occupancy + group > __ROB_ENTRIES__:
            if not rob:
                raise SimulationError(
                    f"instruction group of {group} exceeds ROB capacity"
                )
            r_cycle, r_size, _r_branch = rob_popleft()
            rob_occupancy -= r_size
            if r_cycle > alloc_cycle:
                d_rob_stall += r_cycle - alloc_cycle
                alloc_cycle = r_cycle
        last_alloc = alloc_cycle
        __LOAD_PREP__
        uid = next_uid
        next_uid = uid + 1
        resolve_cycle = alloc_cycle + __EXEC_BASE__ + __JITTER_EXPR__
        __DEP_STMT__
        completion = alloc_cycle + __COMPLETION_TAIL__
        branch = None
        if record.kind is COND:
            taken = record.taken
            pc = record.pc
            d_cond += 1
            if taken:
                d_taken += 1
            pc_bits = pc >> 2
            __TAGE_SCAN__
            if final_pred == taken:
                __TAGE_COMMIT__
            else:
                __MISPREDICT_FLUSH__
                pred = base_lookup(pc)
                ckpt = hist_checkpoint()
                branch = InflightBranch(
                    uid=uid,
                    record=record,
                    wrong_path=False,
                    fetch_cycle=fetch_cycle,
                    alloc_cycle=alloc_cycle,
                    resolve_cycle=resolve_cycle,
                )
                branch.tage_pred = pred
                branch.hist_ckpt = ckpt
                branch.predicted_taken = pred.taken
                hist_push(pc, pred.taken)
                __MISPREDICT_RELOAD__
                d_base_wrong += 1
        fe_cycle += fetch_cycles + btb_bubble
        d_branches += 1
        d_instructions += group
        retire_cycle = completion if completion > resolve_cycle else resolve_cycle
        pace = last_retire + -(-group // __RETIRE_WIDTH__)
        if pace > retire_cycle:
            retire_cycle = pace
        last_retire = retire_cycle
        rob_occupancy += group
        rob_append((retire_cycle, group, branch))
        if branch is not None:
            branch.retire_cycle = retire_cycle
            __WRONG_PATH_FETCH__
            __PENDING_REPAIRS__
            d_mispredictions += 1
            hck = branch.hist_ckpt
            __FINAL_RECOVER__
            baseline._use_alt = use_alt
            baseline._updates_since_reset = usr
            base_train(pred, taken)
            use_alt = baseline._use_alt
            usr = baseline._updates_since_reset
            fe_cycle = resolve_cycle + __RESTEER_PENALTY__
    __TAGE_FLUSH__
    btb._tick = b_tick
    btb.hits += d_btb_hits
    btb.misses += d_btb_misses
    model._fe_cycle = fe_cycle
    model._last_alloc = last_alloc
    model._last_retire = last_retire
    model._rob_occupancy = rob_occupancy
    model._next_uid = next_uid
    stats.instructions += d_instructions
    stats.branches += d_branches
    stats.cond_branches += d_cond
    stats.taken_branches += d_taken
    stats.base_wrong += d_base_wrong
    stats.btb_misses += d_btb_misses
    stats.rob_stall_cycles += d_rob_stall
    stats.mispredictions += d_mispredictions
    stats.wrong_path_branches += d_wp_branches
    stats.wrong_path_mispredicts += d_wp_mispredicts
    stream.seek(stop)
    return stop
'''

#: Digest over the raw template; part of the engine cache key so any
#: template edit invalidates cached engines even without a version bump.
_TEMPLATE_SHA = hashlib.sha256(TAGE_STEP_TEMPLATE.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ #
# generation and compilation

#: Signature of a generated step function.
StepFn = Callable[[PipelineModel, TraceStream, int, int], int]


@dataclass(frozen=True)
class CompiledEngine:
    """A specialized step function plus its provenance."""

    key: str  #: Cache key (version + config hash + decision + template).
    source: str  #: The generated module source, exactly as compiled.
    step: StepFn


def _render(lines: Sequence[str], indent: int) -> str:
    """Join a generated block for splicing at a template placeholder.

    The first line lands on the placeholder's own indentation; later
    lines carry it explicitly.
    """
    return ("\n" + " " * indent).join(lines)


def _nest(lines: Sequence[str], levels: int = 1) -> list[str]:
    """Indent a generated block ``levels`` suites deeper."""
    pad = "    " * levels
    return [pad + line for line in lines]


def _load_prep_lines(decision: SpecializationDecision) -> list[str]:
    """Load-latency block, or the loads guard when the profile saw none.

    With a hierarchy, the L1 hit case — residency probe, LRU refresh,
    hit tally — is unrolled against the cache's set dicts, and only
    misses delegate to the full hierarchy walk (after syncing the
    locally-held tick/hit counters it reads and bumps).
    """
    if not decision.has_loads:
        return [
            "if record.load_addr:",
            '    raise GuardTripped("loads")',
        ]
    if decision.has_hierarchy:
        return [
            "load_latency = 0",
            "la = record.load_addr",
            "if la:",
            f"    line = la >> {decision.l1_line_shift}",
            f"    ways = l1_sets[line & {decision.l1_set_mask}]",
            "    if line in ways:",
            "        l1_tick += 1",
            "        ways[line] = l1_tick",
            "        d_l1_hits += 1",
            f"        load_latency = {decision.l1_latency}",
            "    else:",
            "        l1._tick = l1_tick",
            "        l1.hits += d_l1_hits",
            "        d_l1_hits = 0",
            "        load_latency = hier_load(la)",
            "        l1_tick = l1._tick",
        ]
    return [
        "load_latency = 0",
        "if record.load_addr:",
        "    load_latency = 5",
    ]


# -- deep-TAGE emitters -------------------------------------------------
#
# Each helper returns the lines of one inlined block of the "tage"
# template.  The generated step keeps GHIST/PHIST, the long-history fold
# registers, ``use_alt`` and the aging countdown in *local variables*
# and only syncs them with the predictor objects at the points where
# generic code runs (the mispredict lookup/train) and at the step
# epilogue — so the hot correct path touches no object state beyond the
# table rows.
#
# Folded histories obey the invariant ``comp == chunk-fold(ghist)``:
# the incremental :meth:`FoldedHistory.update` preserves exactly the
# value :meth:`FoldedHistory.rebuild` computes from the raw register.
# The generated engines exploit that algebra — a fold spanning few
# chunks is cheaper to *recompute from GHIST at read time* (two ops per
# chunk, and only for tables the provider scan actually reaches) than
# to maintain on every push.  Only folds wider than
# ``_MAINTAIN_MIN_CHUNKS`` chunks stay push-maintained; the scan walks
# tables top-down, so those long-history folds are precisely the ones
# read on every branch.

#: Chunk count at or above which push-maintenance beats read-time
#: recomputation.  The provider scan reads nearly every table on most
#: branches (it stops only after a second tag hit), so a derived fold
#: costs ~2 interpreter ops per chunk per branch, while maintenance
#: costs ~9 ops per push; the curves cross around four chunks.
_MAINTAIN_MIN_CHUNKS = 5


def _fold_chunks(olen: int, clen: int) -> int:
    return -(-olen // clen)


def _maintained_folds(
    g: TageGeometry,
) -> list[tuple[int, int, int, int, int]]:
    """Fold registers kept in locals and updated on every push.

    ``g.folds`` holds one entry per distinct register (the history
    already gives folds with equal values one shared slot), so each
    register is maintained or derived exactly once.
    """
    return [
        fold
        for fold in g.folds
        if _fold_chunks(fold[1], fold[3]) >= _MAINTAIN_MIN_CHUNKS
    ]


def _derived_folds(
    g: TageGeometry,
) -> list[tuple[int, int, int, int, int]]:
    """Fold registers recomputed from GHIST at read time."""
    return [
        fold
        for fold in g.folds
        if _fold_chunks(fold[1], fold[3]) < _MAINTAIN_MIN_CHUNKS
    ]


def _glow_mask(g: TageGeometry) -> int | None:
    """Width mask of the shadow low-history register, or None.

    Derived folds never span more than ``_MAINTAIN_MIN_CHUNKS`` chunks,
    so all of them fit in a narrow window of recent history.  The
    generated push maintains that window as ``glow`` — a small int
    (one or two CPython digits) — and recomputes derived folds from it,
    instead of paying wide-integer arithmetic against the full GHIST.
    """
    derived = _derived_folds(g)
    if not derived:
        return None
    return (1 << max(fold[1] for fold in derived)) - 1


def _derived_fold_lines(
    g: TageGeometry, slots: Sequence[int], scratch: str = "gw"
) -> list[str]:
    """Recompute the given derived folds from ``glow``.

    Emits the chunk-XOR rebuild (``FoldedHistory.rebuild``) as straight-
    line code; single-chunk folds collapse to one mask of ``glow``.
    """
    by_slot = {fold[0]: fold for fold in g.folds}
    glow_mask = _glow_mask(g)
    seen = list(dict.fromkeys(slots))
    multi = [s for s in seen if _fold_chunks(by_slot[s][1], by_slot[s][3]) > 1]
    lines: list[str] = []
    scratch_for: dict[int, str] = {}
    for olen in sorted({by_slot[s][1] for s in multi}):
        omask = (1 << olen) - 1
        if omask == glow_mask:
            scratch_for[olen] = "glow"
            continue
        name = f"{scratch}{olen}" if len(multi) > 1 else scratch
        scratch_for[olen] = name
        lines.append(f"{name} = glow & {omask}")
    for s in seen:
        _, olen, _, clen, cmask = by_slot[s]
        chunks = _fold_chunks(olen, clen)
        if chunks == 1:
            lines.append(f"fc{s} = glow & {(1 << olen) - 1}")
        else:
            name = scratch_for[olen]
            terms = " ^ ".join(
                [name] + [f"({name} >> {j * clen})" for j in range(1, chunks)]
            )
            lines.append(f"fc{s} = ({terms}) & {cmask}")
    return lines


def _glow_sync_lines(g: TageGeometry) -> list[str]:
    """Re-derive the shadow register after GHIST changed wholesale."""
    mask = _glow_mask(g)
    return [] if mask is None else [f"glow = ghist & {mask}"]


def _tage_bind_lines(g: TageGeometry) -> list[str]:
    lines: list[str] = []
    for t in range(len(g.tables)):
        lines.append(f"tag{t} = baseline._tag[{t}]")
        lines.append(f"ctr{t} = baseline._ctr[{t}]")
        lines.append(f"u{t} = baseline._u[{t}]")
    lines.extend(
        f"fc{slot} = comps[{slot}]" for slot, *_ in _maintained_folds(g)
    )
    lines.extend(_glow_sync_lines(g))
    return lines


def _hist_flush_lines(g: TageGeometry) -> list[str]:
    """Publish the local history registers back to the predictor objects.

    Maintained folds flush their locals; derived folds are recomputed
    (cheap, and only at flush points) so ``fold_comps`` holds the exact
    values the generic code would have maintained.
    """
    lines = _derived_fold_lines(
        g, [fold[0] for fold in _derived_folds(g)], scratch="gf"
    )
    lines.extend(f"comps[{slot}] = fc{slot}" for slot, *_ in g.folds)
    lines.append("hist.ghist = ghist")
    lines.append("hist.phist = phist")
    return lines


def _hist_reload_lines(g: TageGeometry) -> list[str]:
    lines = ["ghist = hist.ghist", "phist = hist.phist"]
    lines.extend(
        f"fc{slot} = comps[{slot}]" for slot, *_ in _maintained_folds(g)
    )
    lines.extend(_glow_sync_lines(g))
    return lines


def _scan_lines(g: TageGeometry) -> list[str]:
    """Provider scan + final-direction logic, ``lookup`` unrolled.

    Mirrors ``TagePredictor.lookup`` with per-table constants inlined;
    instead of index/tag lists it keeps only what prediction and the
    correct-path train consume: the provider's row aliases and index,
    and the alternate's counter value, captured at match time.
    """
    maintained = {fold[0] for fold in _maintained_folds(g)}
    lines = ["provider = -1", "alt_table = -1"]
    for t in range(len(g.tables) - 1, -1, -1):
        log, path_mask, pc_shift, islot, s0, s1, imask, tmask = g.tables[t]
        derived = [
            c
            for c in dict.fromkeys((islot, s0, s1))
            if c not in maintained
        ]
        hash_lines = _derived_fold_lines(g, derived)
        hash_lines += [
            f"path = phist & {path_mask}",
            f"path ^= path >> {log}",
            f"idx = (pc_bits ^ (pc_bits >> {pc_shift})"
            f" ^ fc{islot} ^ path) & {imask}",
        ]
        tag_expr = (
            f"(pc_bits ^ fc{s0}"
            f" ^ (fc{s1} << 1)) & {tmask}"
        )
        hit_lines = [
            f"provider = {t}",
            "p_idx = idx",
            f"p_ctr_row = ctr{t}",
            f"p_u_row = u{t}",
        ]
        if t == len(g.tables) - 1:
            lines.extend(hash_lines)
            lines.append(f"if tag{t}[idx] == ({tag_expr}):")
            lines.extend(_nest(hit_lines))
        else:
            lines.append("if alt_table < 0:")
            lines.extend(_nest(hash_lines))
            lines.append(f"    if tag{t}[idx] == ({tag_expr}):")
            lines.append("        if provider < 0:")
            lines.extend(_nest(hit_lines, 3))
            lines.append("        else:")
            lines.append(f"            alt_table = {t}")
            lines.append(f"            alt_ctr = ctr{t}[idx]")
    lines.extend(
        [
            f"bim_index = pc_bits & {g.bim_mask}",
            "if provider >= 0:",
            "    p_ctr = p_ctr_row[p_idx]",
            "    provider_pred = p_ctr >= 0",
            "    if alt_table >= 0:",
            "        alt_pred = alt_ctr >= 0",
            "    else:",
            "        alt_pred = bim[bim_index] >= 2",
            "    weak = (p_ctr == 0 or p_ctr == -1) and p_u_row[p_idx] == 0",
            f"    if weak and use_alt >= {g.use_alt_threshold}:",
            "        final_pred = alt_pred",
            "    else:",
            "        final_pred = provider_pred",
            "else:",
            "    provider_pred = bim[bim_index] >= 2",
            "    weak = False",
            "    alt_pred = provider_pred",
            "    final_pred = provider_pred",
        ]
    )
    return lines


def _push_lines(g: TageGeometry, pc_expr: str, taken_expr: str) -> list[str]:
    """Speculative history insert, ``GlobalHistory.push`` unrolled.

    Only the maintained (long-history) folds update here; everything
    else is derived from GHIST when read.  Folds over the same window
    share one evicted-bit extraction.
    """
    lines = [
        f"tk = 1 if {taken_expr} else 0",
        f"ghist = ((ghist << 1) | tk) & {g.ghist_mask}",
        f"phist = ((phist << 1) | ({pc_expr} & 1)) & {g.phist_mask}",
    ]
    glow_mask = _glow_mask(g)
    if glow_mask is not None:
        lines.append(f"glow = ((glow << 1) | tk) & {glow_mask}")
    maintained = _maintained_folds(g)
    ev_for: dict[int, str] = {}
    for _, olen, *_rest in maintained:
        if olen not in ev_for:
            name = f"ev{olen}"
            ev_for[olen] = name
            lines.append(f"{name} = (ghist >> {olen}) & 1")
    for slot, olen, outpoint, clen, cmask in maintained:
        evict = ev_for[olen] if outpoint == 0 else f"({ev_for[olen]} << {outpoint})"
        lines.append(f"fc{slot} = ((fc{slot} << 1) | tk) ^ {evict}")
        lines.append(
            f"fc{slot} = (fc{slot} ^ (fc{slot} >> {clen})) & {cmask}"
        )
    return lines


#: Layout of the wrong-path episode entries: plain lists, private to the
#: generated episode code, holding exactly what the repair pass reads —
#: far cheaper to build per wrong-path branch than an ``InflightBranch``
#: plus a full ``HistoryCheckpoint``.  Indices: 0 uid, 1 resolve cycle,
#: 2 record, 3 squashed flag, 4 ghist, 5 phist, 6.. maintained folds in
#: ``_maintained_folds`` order.
_WP_GHIST = 4


def _wp_entry_expr(g: TageGeometry, uid: str, resolve: str) -> str:
    folds = ", ".join(f"fc{slot}" for slot, *_ in _maintained_folds(g))
    tail = f", {folds}" if folds else ""
    return f"[{uid}, {resolve}, record, False, ghist, phist{tail}]"


def _wp_restore_lines(g: TageGeometry, ckpt_var: str) -> list[str]:
    """History rewind from a wrong-path episode entry."""
    lines = [
        f"ghist = {ckpt_var}[{_WP_GHIST}]",
        f"phist = {ckpt_var}[{_WP_GHIST + 1}]",
    ]
    lines.extend(
        f"fc{fold[0]} = {ckpt_var}[{_WP_GHIST + 2 + i}]"
        for i, fold in enumerate(_maintained_folds(g))
    )
    lines.extend(_glow_sync_lines(g))
    return lines


def _restore_lines(g: TageGeometry, ckpt_var: str) -> list[str]:
    """History rewind from a carried ``HistoryCheckpoint``.

    Derived folds need no restore — once GHIST is rewound they are
    recomputed from it at the next read.
    """
    lines = [
        f"ghist = {ckpt_var}.ghist",
        f"phist = {ckpt_var}.phist",
        f"wf = {ckpt_var}.folds",
    ]
    lines.extend(
        f"fc{slot} = wf[{slot}]" for slot, *_ in _maintained_folds(g)
    )
    lines.extend(_glow_sync_lines(g))
    return lines


def _commit_lines(g: TageGeometry) -> list[str]:
    """Correct-path commit: push the outcome, train, never allocate.

    Mirrors ``TagePredictor.spec_resolve_correct`` after its direction
    check: on this path ``final_pred == taken``, so the allocation
    branch of ``train`` is unreachable and is dropped.
    """
    lines = _push_lines(g, "pc", "taken")
    lines.extend(
        [
            "usr += 1",
            f"if usr >= {g.u_reset_period}:",
            "    usr = 0",
            "    age_useful()",
            "if provider >= 0:",
            "    if weak and provider_pred != alt_pred:",
            "        if alt_pred == taken:",
            f"            if use_alt < {g.use_alt_max}:",
            "                use_alt += 1",
            "        elif use_alt > 0:",
            "            use_alt -= 1",
            "    if taken:",
            f"        if p_ctr < {g.ctr_max}:",
            "            p_ctr_row[p_idx] = p_ctr + 1",
            f"    elif p_ctr > {g.ctr_min}:",
            "        p_ctr_row[p_idx] = p_ctr - 1",
            "    if alt_table < 0:",
            "        bv = bim[bim_index]",
            "        if taken:",
            "            if bv < 3:",
            "                bim[bim_index] = bv + 1",
            "        elif bv > 0:",
            "            bim[bim_index] = bv - 1",
            "    if provider_pred != alt_pred:",
            "        pu = p_u_row[p_idx]",
            "        if provider_pred == taken:",
            f"            if pu < {g.u_max}:",
            "                p_u_row[p_idx] = pu + 1",
            "        elif pu > 0:",
            "            p_u_row[p_idx] = pu - 1",
            "else:",
            "    bv = bim[bim_index]",
            "    if taken:",
            "        if bv < 3:",
            "            bim[bim_index] = bv + 1",
            "    elif bv > 0:",
            "        bim[bim_index] = bv - 1",
        ]
    )
    return lines


def _episode_fetch_lines(
    decision: SpecializationDecision, g: TageGeometry
) -> list[str]:
    """Wrong-path fetch, ``_mispredict_episode``'s replay loop unrolled.

    Wrong-path conditionals get the same inline scan/push as the hot
    path but never train; their checkpoints are built directly from the
    local history registers.
    """
    exec_base = decision.sched_to_exec + decision.branch_exec_latency
    if decision.exec_jitter:
        jitter = f"((uid * 2654435761) >> 13) % {decision.exec_jitter}"
    else:
        jitter = "0"

    cond_body = ["pc_bits = record.pc >> 2"]
    cond_body.extend(_scan_lines(g))
    cond_body.append(
        f"wp_branch = {_wp_entry_expr(g, 'uid', 'wp_resolve')}"
    )
    cond_body.extend(_push_lines(g, "record.pc", "final_pred"))
    cond_body.extend(
        [
            "d_wp_branches += 1",
            "fe_cycle += fetch_cycles",
            "episode.append(wp_branch)",
            "produced += 1",
            "if final_pred != record.taken and wp_resolve < resolve_cycle:",
            "    pending.append(wp_branch)",
        ]
    )

    lines = [
        "episode = []",
        "pending = []",
        f"replay = stream_recent({decision.wrong_path_window})",
        "wp_index = 0",
        "produced = 0",
        f"while replay and produced < {decision.wrong_path_max_branches}:",
        "    if rob and rob[0][0] <= fe_cycle:",
        "        freed = 0",
        "        while rob and rob[0][0] <= fe_cycle:",
        "            freed += rob_popleft()[1]",
        "        rob_occupancy -= freed",
        "    record = replay[wp_index % len(replay)]",
        "    wp_index += 1",
        "    group = record.inst_gap + 1",
        f"    fetch_cycles = -(-group // {decision.fetch_width})",
        "    if fe_cycle + fetch_cycles - 1 >= resolve_cycle:",
        "        break",
        "    fetch_cycle = fe_cycle + fetch_cycles - 1",
        f"    alloc_cycle = fetch_cycle + {decision.frontend_depth}",
    ]
    lines.extend(_nest(_load_prep_lines(decision)))
    lines.extend(
        [
            "    uid = next_uid",
            "    next_uid = uid + 1",
            f"    wp_resolve = alloc_cycle + {exec_base} + {jitter}",
        ]
    )
    if decision.has_loads:
        lines.extend(
            [
                "    if load_latency and record.depends_on_load:",
                "        wp_resolve += load_latency",
            ]
        )
    lines.append("    if record.kind is COND:")
    lines.extend(_nest(cond_body, 2))
    lines.extend(
        [
            "    else:",
            "        fe_cycle += fetch_cycles",
        ]
    )
    return lines


def _pending_repair_lines(g: TageGeometry) -> list[str]:
    """Nested wrong-path repairs: recover + squash younger, unrolled."""
    body = [
        "if wp_branch[3]:",
        "    continue",
        "d_wp_mispredicts += 1",
    ]
    body.extend(_wp_restore_lines(g, "wp_branch"))
    body.append("wrec = wp_branch[2]")
    body.extend(_push_lines(g, "wrec.pc", "wrec.taken"))
    body.extend(
        [
            "wp_uid = wp_branch[0]",
            "for flushed in episode:",
            "    if flushed[0] > wp_uid and not flushed[3]:",
            "        flushed[3] = True",
        ]
    )
    lines = [
        "if pending:",
        "    pending.sort(key=_resolve_key)",
        "    for wp_branch in pending:",
    ]
    lines.extend(_nest(body, 2))
    return lines


def _final_recover_lines(g: TageGeometry) -> list[str]:
    """The real branch resolves: rewind history, insert the truth."""
    lines = _restore_lines(g, "hck")
    lines.extend(_push_lines(g, "pc", "taken"))
    return lines


def _btb_probe_lines(decision: SpecializationDecision) -> list[str]:
    """Taken-branch BTB probe, ``BranchTargetBuffer.lookup`` unrolled.

    Ways are unrolled into an if/elif chain over the set's slots; the
    LRU tick and hit/miss tallies live in locals flushed at the step
    epilogue.  Installs are rare, so the miss arm syncs the tick and
    delegates to the bound ``install``.
    """
    lines = [
        "pc_t = record.pc",
        "bb = pc_t >> 2",
        f"bs = ((bb ^ (bb >> {decision.btb_set_bits}))"
        f" & {decision.btb_set_mask}) * {decision.btb_ways}",
    ]
    for way in range(decision.btb_ways):
        slot = "bs" if way == 0 else f"bs + {way}"
        branch = "if" if way == 0 else "elif"
        lines.append(f"{branch} btb_pcs[{slot}] == pc_t:")
        lines.append("    b_tick += 1")
        lines.append(f"    btb_lru[{slot}] = b_tick")
        lines.append("    d_btb_hits += 1")
    lines.extend(
        [
            "else:",
            "    d_btb_misses += 1",
            "    btb._tick = b_tick",
            "    btb_install(pc_t, record.target)",
            "    b_tick = btb._tick",
            f"    btb_bubble = {decision.btb_miss_penalty}",
        ]
    )
    return lines


def generate_engine_source(decision: SpecializationDecision) -> str:
    """Render the template for ``decision`` into compilable source.

    Deterministic: equal decisions yield byte-identical source (the
    GEN001 round-trip contract and the reason disk caching is sound).
    """
    g = decision.tage
    mispredict_flush = _hist_flush_lines(g)
    mispredict_flush.append("baseline._use_alt = use_alt")
    epilogue_flush = _hist_flush_lines(g)
    epilogue_flush.append("baseline._use_alt = use_alt")
    epilogue_flush.append("baseline._updates_since_reset = usr")
    if decision.has_loads and decision.has_hierarchy:
        hier_bind = _render(
            [
                "hier_load = model.hierarchy.load_latency",
                "l1 = model.hierarchy.l1",
                "l1_sets = l1._sets",
                "l1_tick = l1._tick",
                "d_l1_hits = 0",
            ],
            4,
        )
        epilogue_flush.append("l1._tick = l1_tick")
        epilogue_flush.append("l1.hits += d_l1_hits")
    else:
        hier_bind = "pass"
    if decision.has_loads:
        base = decision.nonbranch_base_latency
        completion_tail = (
            f"{decision.sched_to_exec} + "
            f"(load_latency if load_latency > {base} else {base})"
        )
        dep_stmt = _render(
            [
                "if load_latency and record.depends_on_load:",
                "    resolve_cycle += load_latency",
            ],
            8,
        )
    else:
        completion_tail = str(
            decision.sched_to_exec + decision.nonbranch_base_latency
        )
        dep_stmt = "pass"
    if decision.exec_jitter:
        jitter_expr = f"((uid * 2654435761) >> 13) % {decision.exec_jitter}"
    else:
        jitter_expr = "0"
    if decision.wrong_path:
        wrong_path_fetch = _render(_episode_fetch_lines(decision, g), 12)
        pending_repairs = _render(_pending_repair_lines(g), 12)
    else:
        wrong_path_fetch = "pass"
        pending_repairs = "pass"

    substitutions = {
        "__HIER_BIND__": hier_bind,
        "__LOAD_PREP__": _render(_load_prep_lines(decision), 8),
        "__DEP_STMT__": dep_stmt,
        "__COMPLETION_TAIL__": completion_tail,
        "__JITTER_EXPR__": jitter_expr,
        "__FETCH_WIDTH__": str(decision.fetch_width),
        "__FRONTEND_DEPTH__": str(decision.frontend_depth),
        "__EXEC_BASE__": str(
            decision.sched_to_exec + decision.branch_exec_latency
        ),
        "__RETIRE_WIDTH__": str(decision.retire_width),
        "__ROB_ENTRIES__": str(decision.rob_entries),
        "__RESTEER_PENALTY__": str(decision.resteer_penalty),
        "__TAGE_BIND__": _render(_tage_bind_lines(g), 4),
        "__BTB_PROBE__": _render(_btb_probe_lines(decision), 12),
        "__TAGE_SCAN__": _render(_scan_lines(g), 12),
        "__TAGE_COMMIT__": _render(_commit_lines(g), 16),
        "__MISPREDICT_FLUSH__": _render(mispredict_flush, 16),
        "__MISPREDICT_RELOAD__": _render(_hist_reload_lines(g), 16),
        "__WRONG_PATH_FETCH__": wrong_path_fetch,
        "__PENDING_REPAIRS__": pending_repairs,
        "__FINAL_RECOVER__": _render(_final_recover_lines(g), 12),
        "__TAGE_FLUSH__": _render(epilogue_flush, 4),
    }
    source = TAGE_STEP_TEMPLATE
    for placeholder, value in substitutions.items():
        source = source.replace(placeholder, value)
    if "__" in source.replace("__init__", ""):
        leftover = [tok for tok in source.split() if "__" in tok]
        raise SpecializationError(
            f"unsubstituted placeholder in generated engine: {leftover[:3]}"
        )
    return source


def _compile_engine(source: str, key: str) -> StepFn:
    """Round-trip validate and compile generated source to a step fn."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise SpecializationError(
            f"generated engine {key} failed to parse: {exc}"
        ) from exc
    code = compile(tree, f"<specialized:{key}>", "exec")
    namespace: dict[str, object] = {
        "COND": BranchKind.COND,
        "InflightBranch": InflightBranch,
        "SimulationError": SimulationError,
        "GuardTripped": GuardTripped,
    }
    exec(code, namespace)  # noqa: S102 - compiled from our own template
    step = namespace.get("specialized_step")
    if not callable(step):
        raise SpecializationError(
            f"generated engine {key} defines no specialized_step()"
        )
    return step  # type: ignore[return-value]


def engine_cache_key(decision: SpecializationDecision, config_hash: str) -> str:
    """Cache key binding engine code to everything that shaped it."""
    payload = "|".join(
        (str(SPECIALIZE_VERSION), config_hash, decision.fingerprint(), _TEMPLATE_SHA)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


#: In-process engine cache: key -> CompiledEngine.  Unbounded but tiny —
#: one entry per distinct (config, decision) pair seen by this process.
_ENGINE_MEMO: dict[str, CompiledEngine] = {}


def load_engine(
    decision: SpecializationDecision, config_hash: str
) -> CompiledEngine:
    """Fetch a compiled engine from the in-process memo, else codegen."""
    key = engine_cache_key(decision, config_hash)
    cached = _ENGINE_MEMO.get(key)
    if cached is not None:
        TELEMETRY.registry.counter("specialize.engine_cache_hits").inc()
        return cached
    source = generate_engine_source(decision)
    engine = CompiledEngine(key, source, _compile_engine(source, key))
    _ENGINE_MEMO[key] = engine
    TELEMETRY.registry.counter("specialize.engines_compiled").inc()
    return engine


# ------------------------------------------------------------------ #
# checkpoint / restore

#: Model attributes excluded from checkpoints: the shared telemetry
#: handle and the bound hot-path methods (deep-copying a bound method
#: would drag a duplicate of its receiver into the snapshot).  They are
#: re-derived by ``_bind_hot_paths`` after a restore.
_CHECKPOINT_EXCLUDE = frozenset(
    {
        "_tel",
        "_base_lookup",
        "_base_checkpoint",
        "_base_spec_push",
        "_btb_lookup",
        "_btb_install",
        "_fused_resolve",
    }
)

#: A restorable snapshot: (model state dict, stream checkpoint).
_Snapshot = tuple[dict[str, object], tuple[int, list[BranchRecord]]]


def _take_checkpoint(model: PipelineModel, stream: TraceStream) -> _Snapshot:
    state = {
        k: v for k, v in model.__dict__.items() if k not in _CHECKPOINT_EXCLUDE
    }
    # One deepcopy call so objects shared between attributes (e.g. a
    # unit holding the baseline's history) stay shared in the snapshot.
    return copy.deepcopy((state, stream.checkpoint()))


def _restore_checkpoint(
    model: PipelineModel, stream: TraceStream, snapshot: _Snapshot
) -> None:
    state, stream_state = snapshot
    model.__dict__.update(state)
    model._bind_hot_paths()
    stream.restore(stream_state)


# ------------------------------------------------------------------ #
# the driver


def run_specialized(
    model: PipelineModel,
    records: Sequence[BranchRecord],
    *,
    config_hash: str = "",
    profile_branches: int = DEFAULT_PROFILE_BRANCHES,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    force_abort_at: int | None = None,
) -> tuple[SimStats, dict[str, object]]:
    """Simulate ``records`` on ``model``, specializing after a profile.

    Drop-in replacement for ``model.run(records)`` with bit-identical
    ``SimStats``.  Runs ``profile_branches`` under the generic engine,
    plans a specialization, then alternates specialized spans with
    checkpoints; a guard trip (or ``force_abort_at``, used by tests to
    exercise the abort machinery) restores the last checkpoint and
    finishes generically.

    Returns ``(stats, info)`` where ``info`` records the decision:
    ``engine`` ("generic"/"specialized"), ``reason`` (when generic),
    ``template``, ``total_branches``, ``profiled_branches``,
    ``specialized_branches``
    (branches that *stayed* specialized after any abort), ``checkpoints``,
    ``guards_failed``, ``aborts``, ``aborted``, and ``guard``.
    """
    registry = TELEMETRY.registry
    registry.counter("specialize.runs").inc()

    total = len(records)
    stream = TraceStream(records, window=model.config.wrong_path_window)
    profile_n = min(max(profile_branches, 1), total)
    model.run_stream(stream, limit=profile_n)

    info: dict[str, object] = {
        "engine": "generic",
        "version": SPECIALIZE_VERSION,
        "total_branches": total,
        "profiled_branches": profile_n,
        "specialized_branches": 0,
        "checkpoints": 0,
        "guards_failed": 0,
        "aborts": 0,
        "aborted": False,
        "guard": None,
    }

    if stream.exhausted:
        info["reason"] = "trace shorter than profile prefix"
        return model.finalize(), info

    decision, reason = plan_specialization(model, records, profile_n)
    if decision is None:
        info["reason"] = reason
        model.run_stream(stream)
        return model.finalize(), info

    engine = load_engine(decision, config_hash)
    info["engine"] = "specialized"
    info["template"] = decision.template
    info["engine_key"] = engine.key
    step = engine.step
    interval = max(checkpoint_interval, 1)

    pos = profile_n
    committed = profile_n  # last checkpointed position
    snapshot = _take_checkpoint(model, stream)
    checkpoints = 1
    registry.counter("specialize.checkpoints").inc()

    while pos < total:
        stop = min(total, pos + interval)
        # A forced abort below the profile prefix (0 is valid) trips at
        # the start of the first span: the whole run replays generic.
        forced = force_abort_at is not None and force_abort_at < stop
        try:
            pos = step(
                model, stream, pos, max(pos, force_abort_at) if forced else stop
            )
            if forced:
                raise GuardTripped("forced")
        except GuardTripped as trip:
            registry.counter("specialize.guards_failed").inc()
            registry.counter("specialize.aborts").inc()
            _restore_checkpoint(model, stream, snapshot)
            model.run_stream(stream)
            info["guards_failed"] = 1
            info["aborts"] = 1
            info["aborted"] = True
            info["guard"] = trip.guard
            info["checkpoints"] = checkpoints
            info["specialized_branches"] = committed - profile_n
            return model.finalize(), info
        if pos < total:
            snapshot = _take_checkpoint(model, stream)
            committed = pos
            checkpoints += 1
            registry.counter("specialize.checkpoints").inc()

    info["checkpoints"] = checkpoints
    info["specialized_branches"] = total - profile_n
    return model.finalize(), info
