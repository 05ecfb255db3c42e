"""Property-based tests (hypothesis) for core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bht import BhtConfig, BranchHistoryTable
from repro.core.loop_predictor import LoopPredictor, pack_state, unpack_state
from repro.core.local_base import SpecUpdate
from repro.core.obq import OutstandingBranchQueue
from repro.core.ports import repair_duration
from repro.predictors.counters import counter_update
from repro.predictors.history import FoldedHistory, GlobalHistory
from repro.trace.io import dumps_trace, loads_trace
from repro.trace.records import BranchKind, BranchRecord

# --------------------------------------------------------------------- #
# strategies

branch_records = st.builds(
    BranchRecord,
    pc=st.integers(min_value=0, max_value=2**48),
    target=st.integers(min_value=0, max_value=2**48),
    taken=st.just(True),
    kind=st.sampled_from(list(BranchKind)),
    inst_gap=st.integers(min_value=0, max_value=500),
    load_addr=st.integers(min_value=0, max_value=2**48),
    depends_on_load=st.booleans(),
)

cond_records = st.builds(
    BranchRecord,
    pc=st.integers(min_value=0, max_value=2**32),
    target=st.integers(min_value=0, max_value=2**32),
    taken=st.booleans(),
    kind=st.just(BranchKind.COND),
    inst_gap=st.integers(min_value=0, max_value=50),
)


# --------------------------------------------------------------------- #
# trace serialization

@given(st.lists(st.one_of(branch_records, cond_records), max_size=50))
def test_trace_round_trip(records):
    assert loads_trace(dumps_trace(records)) == records


# --------------------------------------------------------------------- #
# folded history

@given(
    st.lists(
        st.tuples(st.integers(0, 2**20), st.booleans()), min_size=1, max_size=120
    ),
    st.integers(2, 40),
    st.integers(2, 12),
)
def test_folded_history_incremental_equals_rebuild(pushes, length, compressed):
    history = GlobalHistory(max_length=max(length, 1) + 8)
    fold = history.register_fold(FoldedHistory(length, compressed))
    for pc, taken in pushes:
        history.push(pc, taken)
    reference = FoldedHistory(length, compressed)
    reference.rebuild(history.ghist)
    assert fold.comp == reference.comp


@given(
    st.lists(st.tuples(st.integers(0, 2**16), st.booleans()), min_size=2, max_size=60),
    st.integers(1, 30),
)
def test_history_checkpoint_restore_identity(pushes, cut):
    history = GlobalHistory(max_length=48)
    fold = history.register_fold(FoldedHistory(32, 7))
    cut = min(cut, len(pushes) - 1)
    for pc, taken in pushes[:cut]:
        history.push(pc, taken)
    ckpt = history.checkpoint()
    saved = (history.ghist, history.phist, fold.comp)
    for pc, taken in pushes[cut:]:
        history.push(pc, taken)
    history.restore(ckpt)
    assert (history.ghist, history.phist, fold.comp) == saved


_history_ops = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 2**16), st.booleans()),
    st.just(("checkpoint",)),
    st.just(("restore",)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 24), st.integers(1, 12)), max_size=6),
    st.lists(_history_ops, max_size=150),
)
def test_shared_fold_registers_track_ghist(shapes, ops):
    # Folds holding equal values share a register: equal shapes, and
    # any fold no wider than its compressed length ((4, 4) and (4, 9)
    # both hold the low four GHIST bits; (4, 3) folds and shares with
    # neither).  Each shape is registered twice, so sharing always
    # occurs, next to shapes that share nothing.
    shapes = [(4, 4), (4, 9), (4, 3), (12, 5)] + shapes
    history = GlobalHistory(max_length=32)
    folds = [history.register_fold(FoldedHistory(o, c)) for o, c in shapes * 2]
    registers = {(o, min(o, c)) for o, c in shapes}
    saved = []
    for op in ops:
        if op[0] == "push":
            history.push(op[1], op[2])
        elif op[0] == "checkpoint":
            saved.append(history.checkpoint())
        elif saved:
            history.restore(saved.pop())
        for fold in folds:
            reference = FoldedHistory(fold.original_length, fold.compressed_length)
            reference.rebuild(history.ghist)
            assert fold.comp == reference.comp
    assert len(history.checkpoint().folds) == len(registers)


# --------------------------------------------------------------------- #
# counters

@given(st.integers(0, 7), st.lists(st.booleans(), max_size=40), st.integers(1, 3))
def test_counter_stays_in_range(start, updates, bits):
    max_value = (1 << bits) - 1
    value = min(start, max_value)
    for taken in updates:
        value = counter_update(value, taken, max_value)
        assert 0 <= value <= max_value


# --------------------------------------------------------------------- #
# BHT

@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 4095)),
        min_size=1,
        max_size=200,
    )
)
def test_bht_find_after_allocate(ops):
    bht = BranchHistoryTable(BhtConfig(entries=32, ways=4))
    for pc_index, state in ops:
        pc = 0x1000 + 4 * pc_index
        slot = bht.find(pc)
        if slot < 0:
            slot = bht.allocate(pc, state)
        else:
            bht.set_state(slot, state)
        found = bht.find(pc)
        assert found == slot
        assert bht.state_at(found) == state
        assert bht.occupancy() <= 32


@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2047)), max_size=60),
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2047)), max_size=60),
)
def test_bht_snapshot_restore_identity(before_ops, after_ops):
    bht = BranchHistoryTable(BhtConfig(entries=16, ways=4))
    for pc_index, state in before_ops:
        pc = 0x1000 + 4 * pc_index
        if bht.find(pc) < 0:
            bht.allocate(pc, state)
        else:
            bht.set_state(bht.find(pc), state)
    snap = bht.snapshot()
    reference = bht.snapshot()
    for pc_index, state in after_ops:
        pc = 0x1000 + 4 * pc_index
        if bht.find(pc) < 0:
            bht.allocate(pc, state)
        else:
            bht.set_state(bht.find(pc), state)
    bht.restore_snapshot(snap)
    assert bht.snapshot() == reference
    # Restoring again is idempotent (zero dirty slots).
    assert bht.restore_snapshot(snap) == 0


# --------------------------------------------------------------------- #
# OBQ

@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=80),
    st.booleans(),
    st.integers(2, 16),
)
def test_obq_invariants(pc_indices, coalesce, capacity):
    obq = OutstandingBranchQueue(capacity=capacity, coalesce=coalesce)
    for uid, pc_index in enumerate(pc_indices):
        spec = SpecUpdate(
            pc=0x1000 + 16 * pc_index,
            slot=0,
            pre_state=uid,
            pre_valid=True,
            post_state=uid + 2,
        )
        obq.push(uid, spec)
        entries = obq.entries()
        # Bounded.
        assert len(entries) <= capacity
        # Program-ordered, non-overlapping uid ranges.
        for older, younger in zip(entries, entries[1:]):
            assert older.last_uid < younger.first_uid
        for entry in entries:
            assert entry.first_uid <= entry.last_uid


@given(st.lists(st.integers(0, 7), min_size=1, max_size=60), st.integers(0, 60))
def test_obq_flush_keeps_only_older(pc_indices, boundary):
    obq = OutstandingBranchQueue(capacity=64, coalesce=False)
    for uid, pc_index in enumerate(pc_indices):
        obq.push(
            uid,
            SpecUpdate(
                pc=0x1000 + 16 * pc_index,
                slot=0,
                pre_state=0,
                pre_valid=True,
                post_state=1,
            ),
        )
    obq.flush_younger(boundary)
    assert all(entry.first_uid <= boundary for entry in obq.entries())


# --------------------------------------------------------------------- #
# loop predictor state machine

@given(st.integers(0, 2047), st.booleans(), st.lists(st.booleans(), max_size=30))
def test_loop_state_machine_invariants(count, dominant, outcomes):
    predictor = LoopPredictor()
    state = pack_state(count, dominant)
    for taken in outcomes:
        state = predictor.next_state(state, taken)
        new_count, _ = unpack_state(state)
        assert 0 <= new_count <= 2047


@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_loop_spec_update_matches_next_state(outcomes):
    """The table update must agree with the pure transition function."""
    predictor = LoopPredictor()
    pc = 0x4000
    state = None
    for taken in outcomes:
        spec = predictor.spec_update(pc, taken)
        if state is not None:
            assert spec.pre_state == state
            assert spec.post_state == predictor.next_state(state, taken)
        state = spec.post_state


@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_loop_repair_restores_pre_state(outcomes):
    """repair_write(pre_state) is the exact inverse of spec_update."""
    predictor = LoopPredictor()
    pc = 0x4000
    predictor.spec_update(pc, True)
    baseline_state = predictor.bht.state_at(predictor.bht.find(pc))
    specs = [predictor.spec_update(pc, taken) for taken in outcomes]
    predictor.repair_write(pc, specs[0].pre_state)
    assert predictor.bht.state_at(predictor.bht.find(pc)) == baseline_state


# --------------------------------------------------------------------- #
# repair timing

@given(st.integers(0, 200), st.integers(0, 200), st.integers(1, 16), st.integers(1, 16))
def test_repair_duration_properties(reads, writes, read_ports, write_ports):
    duration = repair_duration(reads, writes, read_ports, write_ports)
    assert duration >= 0
    # Monotone in work:
    assert repair_duration(reads + 1, writes, read_ports, write_ports) >= duration
    assert repair_duration(reads, writes + 1, read_ports, write_ports) >= duration
    # Antitone in ports:
    assert repair_duration(reads, writes, read_ports + 1, write_ports + 1) <= duration
    # Enough bandwidth finishes in one cycle:
    if reads or writes:
        assert repair_duration(reads, writes, max(reads, 1), max(writes, 1)) == 1
