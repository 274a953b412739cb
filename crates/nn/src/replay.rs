//! Experience replay buffer with action-mask support.
//!
//! The co-scheduling environment has a *state-dependent* action space
//! (e.g. a 4-way partition is illegal when only two jobs remain), so each
//! transition stores the valid-action bitmask of the successor state; the
//! double-DQN target maximises only over valid actions.
//!
//! The ring stores each state once: a rollout's successor state is its
//! next step's state, so consecutive transitions share that row, and
//! the rows live in chunks rather than one heap block per state (see
//! [`ReplayBuffer`]). [`ReplayBuffer::sample_into`] fills a
//! pre-allocated [`MiniBatch`] — a contiguous `B × state_dim` state
//! matrix ready for the batched network kernels and each successor's
//! row number — with no per-step allocation.
//!
//! Beside each state the ring keeps the learner's target Q-row for it
//! and the target epoch that computed it, so a successor state is run
//! through the target network once per target sync, not once per
//! sample ([`crate::dqn`]).

use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;

/// One transition `(s, a, r, s', done)` plus the successor's action mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f32>,
    /// Action index.
    pub action: usize,
    /// Immediate reward.
    pub reward: f32,
    /// Successor state (ignored when `done`).
    pub next_state: Vec<f32>,
    /// Episode ended at the successor.
    pub done: bool,
    /// Bitmask of valid actions in the successor state (bit `i` ⇒ action
    /// `i` legal). Ignored when `done`.
    pub next_mask: u64,
}

/// A sampled minibatch in contiguous batched layout: `states` is a
/// `len × state_dim` row-major matrix, the other fields are one entry
/// per sample. All buffers are reused across
/// [`ReplayBuffer::sample_into`] calls.
#[derive(Debug, Clone, Default)]
pub struct MiniBatch {
    /// Sampled states, `len × state_dim`.
    pub states: Vec<f32>,
    /// The ring row that holds each sample's successor state.
    pub next_rows: Vec<usize>,
    /// Action taken per sample.
    pub actions: Vec<usize>,
    /// Reward per sample.
    pub rewards: Vec<f32>,
    /// Terminal flag per sample.
    pub dones: Vec<bool>,
    /// Successor action mask per sample.
    pub next_masks: Vec<u64>,
    /// Number of samples.
    pub len: usize,
    /// State vector width.
    pub state_dim: usize,
}

impl MiniBatch {
    /// An empty minibatch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rows per chunk of the state store: at the paper's 204–215-wide
/// states a chunk is about 105 KiB.
const CHUNK_ROWS: usize = 128;

/// A stored transition without its states: those are rows `row` (s) and
/// `row + 1` (s′) of the ring's [`Rows`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    row: usize,
    action: usize,
    reward: f32,
    done: bool,
    next_mask: u64,
}

/// [`CHUNK_ROWS`] rows of [`Rows`]: each row's state, and beside it
/// the target Q-row cached for that state with the target epoch that
/// computed it (`0`: none).
#[derive(Debug)]
struct Chunk {
    states: Box<[f32]>,
    targets: Box<[f32]>,
    epochs: Box<[u64]>,
}

/// The states the live transitions refer to, one row each, numbered in
/// push order from 0 and laid out in chunks of [`CHUNK_ROWS`] rows.
/// Rows are appended at the back and released from the front a whole
/// chunk at a time; a released chunk is kept and refilled, so a ring
/// that has reached its working size allocates nothing.
#[derive(Debug, Default)]
struct Rows {
    /// Row width, fixed by the first push.
    dim: usize,
    /// Width of a cached target Q-row.
    q_width: usize,
    /// `chunks[k]` holds rows `(first_chunk + k) * CHUNK_ROWS ..`.
    chunks: VecDeque<Chunk>,
    first_chunk: usize,
    /// Released chunks, waiting to be refilled.
    spare: Vec<Chunk>,
    /// Number of the next row appended.
    next: usize,
}

impl Rows {
    /// Row `id`'s chunk and its place in it.
    fn locate(&self, id: usize) -> (&Chunk, usize) {
        (
            &self.chunks[id / CHUNK_ROWS - self.first_chunk],
            id % CHUNK_ROWS,
        )
    }

    fn row(&self, id: usize) -> &[f32] {
        let (chunk, at) = self.locate(id);
        &chunk.states[at * self.dim..(at + 1) * self.dim]
    }

    /// The newest row, if any.
    fn last(&self) -> Option<&[f32]> {
        self.next.checked_sub(1).map(|id| self.row(id))
    }

    /// Append `state` as the next row, with no target Q-row cached;
    /// returns its number.
    fn append(&mut self, state: &[f32]) -> usize {
        let id = self.next;
        if id.is_multiple_of(CHUNK_ROWS) {
            let (dim, q_width) = (self.dim, self.q_width);
            let chunk = self.spare.pop().unwrap_or_else(|| Chunk {
                states: vec![0.0; CHUNK_ROWS * dim].into_boxed_slice(),
                targets: vec![0.0; CHUNK_ROWS * q_width].into_boxed_slice(),
                epochs: vec![0; CHUNK_ROWS].into_boxed_slice(),
            });
            self.chunks.push_back(chunk);
        }
        let at = id % CHUNK_ROWS;
        let chunk = self.chunks.back_mut().expect("row's chunk just ensured");
        chunk.states[at * self.dim..(at + 1) * self.dim].copy_from_slice(state);
        // A refilled chunk still holds its last rows' stamps, and one of
        // them may equal the current epoch.
        chunk.epochs[at] = 0;
        self.next += 1;
        id
    }

    /// Release every chunk that holds only rows below `oldest`.
    fn release_below(&mut self, oldest: usize) {
        while (self.first_chunk + 1) * CHUNK_ROWS <= oldest {
            let chunk = self.chunks.pop_front().expect("row `oldest` is stored");
            self.spare.push(chunk);
            self.first_chunk += 1;
        }
    }
}

/// Whether two states are equal bit for bit (so `-0.0` differs from
/// `0.0`, and a NaN equals only its own bits).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fixed-capacity FIFO ring of transitions that stores each state once.
///
/// A rollout's successor state is the next step's state, so a
/// transition whose `state` is bit-equal to the previous push's
/// `next_state` shares that row; the `next_state` of every push is a
/// new row. A live transition's two states are therefore always
/// consecutive rows, and the rows of the live transitions run in push
/// order from the oldest one's `state` to the newest one's `next_state`.
///
/// Slot `i` holds the latest push `p` with `p % capacity == i`, exactly
/// where a plain `Vec<Transition>` ring that overwrites its oldest
/// entry keeps it, and [`ReplayBuffer::sample_into`] draws one
/// `gen_range` over the slots per sample: the minibatches are those of
/// that plain ring, bit for bit. Storage grows with what is pushed,
/// never with `capacity`.
#[derive(Debug)]
pub struct ReplayBuffer {
    slots: Vec<Slot>,
    rows: Rows,
    capacity: usize,
    /// The oldest slot once the ring is full (the next one overwritten).
    head: usize,
}

impl ReplayBuffer {
    /// New buffer holding at most `capacity` transitions, with room for
    /// a target Q-row of `q_width` values beside each state. Allocates
    /// nothing until the first push.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn new(capacity: usize, q_width: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            slots: Vec::new(),
            rows: Rows {
                q_width,
                ..Rows::default()
            },
            capacity,
            head: 0,
        }
    }

    /// Append a transition, evicting the oldest beyond capacity. The
    /// first push fixes the state width.
    ///
    /// # Panics
    /// Panics if `t.state` or `t.next_state` is not as wide as the
    /// states already stored (for the first push: if the two differ).
    pub fn push(&mut self, t: Transition) {
        let dim = if self.rows.next == 0 {
            t.state.len()
        } else {
            self.rows.dim
        };
        assert_eq!(
            t.state.len(),
            dim,
            "transition state has width {}, the ring's states have width {dim}",
            t.state.len()
        );
        assert_eq!(
            t.next_state.len(),
            dim,
            "transition next_state has width {}, the ring's states have width {dim}",
            t.next_state.len()
        );
        self.rows.dim = dim;
        let row = match self.rows.last() {
            Some(last) if same_bits(last, &t.state) => self.rows.next - 1,
            _ => self.rows.append(&t.state),
        };
        self.rows.append(&t.next_state);
        let slot = Slot {
            row,
            action: t.action,
            reward: t.reward,
            done: t.done,
            next_mask: t.next_mask,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            self.slots[self.head] = slot;
            self.head = (self.head + 1) % self.capacity;
        }
        // The oldest transition holds the oldest row anyone still needs.
        self.rows.release_below(self.slots[self.head].row);
    }

    /// Number of stored transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sample `n` transitions uniformly with replacement into `batch`'s
    /// pre-allocated buffers. A successor state is not copied: `batch`
    /// names its row, which stays live until the next push.
    ///
    /// # Panics
    /// Panics if the buffer is empty.
    pub fn sample_into(&self, n: usize, rng: &mut SmallRng, batch: &mut MiniBatch) {
        assert!(!self.is_empty(), "cannot sample an empty buffer");
        let dim = self.rows.dim;
        batch.len = n;
        batch.state_dim = dim;
        batch.states.resize(n * dim, 0.0);
        batch.next_rows.resize(n, 0);
        batch.actions.resize(n, 0);
        batch.rewards.resize(n, 0.0);
        batch.dones.resize(n, false);
        batch.next_masks.resize(n, 0);
        for i in 0..n {
            let t = &self.slots[rng.gen_range(0..self.slots.len())];
            batch.states[i * dim..(i + 1) * dim].copy_from_slice(self.rows.row(t.row));
            batch.next_rows[i] = t.row + 1;
            batch.actions[i] = t.action;
            batch.rewards[i] = t.reward;
            batch.dones[i] = t.done;
            batch.next_masks[i] = t.next_mask;
        }
    }

    /// The state in live row `row`.
    pub(crate) fn state(&self, row: usize) -> &[f32] {
        self.rows.row(row)
    }

    /// The target Q-row cached for live row `row`, if target epoch
    /// `epoch` computed it.
    pub(crate) fn cached_target(&self, row: usize, epoch: u64) -> Option<&[f32]> {
        let (chunk, at) = self.rows.locate(row);
        let w = self.rows.q_width;
        (chunk.epochs[at] == epoch).then(|| &chunk.targets[at * w..(at + 1) * w])
    }

    /// Cache `q`, target epoch `epoch`'s Q-row for live row `row`.
    pub(crate) fn cache_target(&mut self, row: usize, epoch: u64, q: &[f32]) {
        let w = self.rows.q_width;
        let chunk = &mut self.rows.chunks[row / CHUNK_ROWS - self.rows.first_chunk];
        let at = row % CHUNK_ROWS;
        chunk.targets[at * w..(at + 1) * w].copy_from_slice(q);
        chunk.epochs[at] = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// The ring as it was before it stored states once: whole
    /// transitions in a `Vec`, the oldest overwritten in place. The
    /// reference [`ReplayBuffer`] must reproduce bit for bit.
    struct NaiveRing {
        storage: Vec<Transition>,
        capacity: usize,
        head: usize,
    }

    impl NaiveRing {
        fn new(capacity: usize) -> Self {
            Self {
                storage: Vec::new(),
                capacity,
                head: 0,
            }
        }

        fn push(&mut self, t: Transition) {
            if self.storage.len() < self.capacity {
                self.storage.push(t);
            } else {
                self.storage[self.head] = t;
                self.head = (self.head + 1) % self.capacity;
            }
        }

        /// A minibatch, and its successor states as a `n × dim` matrix.
        fn sample_into(
            &self,
            n: usize,
            rng: &mut SmallRng,
            batch: &mut MiniBatch,
            next_states: &mut Vec<f32>,
        ) {
            let dim = self.storage[0].state.len();
            batch.len = n;
            batch.state_dim = dim;
            batch.states.clear();
            next_states.clear();
            batch.actions.clear();
            batch.rewards.clear();
            batch.dones.clear();
            batch.next_masks.clear();
            for _ in 0..n {
                let t = &self.storage[rng.gen_range(0..self.storage.len())];
                batch.states.extend_from_slice(&t.state);
                next_states.extend_from_slice(&t.next_state);
                batch.actions.push(t.action);
                batch.rewards.push(t.reward);
                batch.dones.push(t.done);
                batch.next_masks.push(t.next_mask);
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn t(reward: f32) -> Transition {
        Transition {
            state: vec![reward],
            action: 0,
            reward,
            next_state: vec![reward + 1.0],
            done: false,
            next_mask: u64::MAX,
        }
    }

    /// Pushes as a rollout makes them: episodes of 1–9 chained steps,
    /// each ending in a terminal, and every so often a step whose state
    /// is not the previous successor — a fresh draw, or the successor
    /// with one `0.0` turned into `-0.0`, which only bits tell apart.
    /// States carry NaN, infinities and signed zeros.
    fn rollout_pushes(dim: usize, n: usize, seed: u64) -> Vec<Transition> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
        let draw = |rng: &mut SmallRng| -> Vec<f32> {
            (0..dim)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect()
        };
        let mut out = Vec::with_capacity(n);
        let mut state = draw(&mut rng);
        let mut left = 0;
        while out.len() < n {
            if left == 0 {
                left = rng.gen_range(1..10);
            }
            left -= 1;
            let mut next_state = draw(&mut rng);
            if rng.gen_range(0..4) == 0 {
                next_state[0] = 0.0;
            }
            let done = left == 0;
            out.push(Transition {
                state: state.clone(),
                action: rng.gen_range(0..29usize),
                reward: rng.gen_range(-2.0f32..2.0),
                next_state: next_state.clone(),
                done,
                next_mask: rng.next_u64(),
            });
            state = match rng.gen_range(0..6) {
                _ if done => draw(&mut rng),
                0 => draw(&mut rng),
                1 if next_state[0].to_bits() == 0 => {
                    next_state[0] = -0.0;
                    next_state
                }
                _ => next_state,
            };
        }
        out
    }

    #[test]
    fn push_and_len() {
        let mut buf = ReplayBuffer::new(3, 0);
        assert!(buf.is_empty());
        buf.push(t(1.0));
        buf.push(t(2.0));
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut buf = ReplayBuffer::new(3, 0);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 3);
        let mut mb = MiniBatch::new();
        buf.sample_into(300, &mut SmallRng::seed_from_u64(9), &mut mb);
        // 0 and 1 evicted; 2, 3, 4 present, each with its own states.
        for r in [0.0, 1.0] {
            assert!(!mb.rewards.contains(&r));
        }
        for r in [2.0, 3.0, 4.0] {
            assert!(mb.rewards.contains(&r));
        }
        for i in 0..mb.len {
            assert_eq!(mb.states[i], mb.rewards[i]);
            assert_eq!(buf.state(mb.next_rows[i]), [mb.rewards[i] + 1.0]);
        }
    }

    #[test]
    fn sampling_is_uniformish() {
        let mut buf = ReplayBuffer::new(10, 0);
        for i in 0..10 {
            buf.push(t(i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let mut counts = [0usize; 10];
        let mut mb = MiniBatch::new();
        buf.sample_into(10_000, &mut rng, &mut mb);
        for (i, c) in counts.iter_mut().enumerate() {
            *c = mb.rewards.iter().filter(|&&r| r == i as f32).count();
        }
        for &c in &counts {
            assert!(c > 700 && c < 1300, "count {c} far from uniform");
        }
    }

    #[test]
    fn sample_into_matches_the_naive_ring() {
        // Capacities below, at and well above a chunk, with enough
        // pushes to wrap each ring many times.
        for (capacity, dim, pushes) in [(1, 3, 40), (7, 1, 600), (50, 5, 1_500), (300, 2, 2_500)] {
            let mut ring = ReplayBuffer::new(capacity, 0);
            let mut naive = NaiveRing::new(capacity);
            let mut rng_ring = SmallRng::seed_from_u64(capacity as u64);
            let mut rng_naive = rng_ring.clone();
            let (mut got, mut want) = (MiniBatch::new(), MiniBatch::new());
            let mut want_next = Vec::new();
            for (k, tr) in rollout_pushes(dim, pushes, 17).into_iter().enumerate() {
                naive.push(tr.clone());
                ring.push(tr);
                assert_eq!(ring.len(), naive.storage.len());
                let n = 1 + k % 9;
                ring.sample_into(n, &mut rng_ring, &mut got);
                naive.sample_into(n, &mut rng_naive, &mut want, &mut want_next);
                let got_next: Vec<f32> = got
                    .next_rows
                    .iter()
                    .flat_map(|&row| ring.state(row).iter().copied())
                    .collect();
                let at = format!("capacity {capacity}, push {k}");
                assert_eq!((got.len, got.state_dim), (want.len, want.state_dim), "{at}");
                assert_eq!(bits(&got.states), bits(&want.states), "{at}");
                assert_eq!(bits(&got_next), bits(&want_next), "{at}");
                assert_eq!(got.actions, want.actions, "{at}");
                assert_eq!(bits(&got.rewards), bits(&want.rewards), "{at}");
                assert_eq!(got.dones, want.dones, "{at}");
                assert_eq!(got.next_masks, want.next_masks, "{at}");
            }
        }
    }

    #[test]
    fn a_chained_state_is_stored_once() {
        let mut buf = ReplayBuffer::new(16, 0);
        let s = |x: f32| vec![x, 0.0];
        for x in 0..5 {
            let x = x as f32;
            buf.push(Transition {
                state: s(x),
                next_state: s(x + 1.0),
                ..t(x)
            });
        }
        assert_eq!(buf.rows.next, 6, "five chained steps hold six states");
        // `-0.0` is not the stored `0.0`: the state gets its own row.
        buf.push(Transition {
            state: vec![5.0, -0.0],
            next_state: s(6.0),
            ..t(5.0)
        });
        assert_eq!(buf.rows.next, 8);
    }

    #[test]
    fn a_full_ring_releases_the_rows_it_no_longer_needs() {
        let mut buf = ReplayBuffer::new(10, 0);
        for tr in rollout_pushes(4, 20 * CHUNK_ROWS, 3) {
            buf.push(tr);
        }
        // Ten transitions and the push being stored span at most 22
        // rows, so at most two chunks ever exist: 2 560 rows passed
        // through them.
        let (live, spare) = (buf.rows.chunks.len(), buf.rows.spare.len());
        assert!(live + spare <= 2, "{live} chunks and {spare} spare");
    }

    #[test]
    fn a_refilled_chunk_serves_no_target_row_of_its_old_rows() {
        // Two-row transitions into a ring of ten, so a chunk is released
        // and refilled every 64 pushes.
        let mut buf = ReplayBuffer::new(10, 3);
        let pushes = rollout_pushes(2, 20 * CHUNK_ROWS, 5);
        let epoch = 7;
        for (k, tr) in pushes.into_iter().enumerate() {
            buf.push(tr);
            let newest = buf.rows.next - 1;
            // Rows appended since the last cache carry no target row.
            assert_eq!(buf.cached_target(newest, epoch), None, "push {k}");
            let q = [k as f32, 1.0, -1.0];
            buf.cache_target(newest, epoch, &q);
            assert_eq!(buf.cached_target(newest, epoch), Some(&q[..]));
            assert_eq!(buf.cached_target(newest, epoch + 1), None);
        }
        assert!(buf.rows.spare.len() + buf.rows.chunks.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "state has width 3, the ring's states have width 2")]
    fn a_state_of_the_wrong_width_is_refused_at_push() {
        let mut buf = ReplayBuffer::new(4, 0);
        buf.push(Transition {
            state: vec![0.0; 2],
            next_state: vec![0.0; 2],
            ..t(0.0)
        });
        buf.push(Transition {
            state: vec![0.0; 3],
            next_state: vec![0.0; 2],
            ..t(1.0)
        });
    }

    #[test]
    #[should_panic(expected = "next_state has width 1, the ring's states have width 2")]
    fn a_next_state_of_the_wrong_width_is_refused_at_push() {
        let mut buf = ReplayBuffer::new(4, 0);
        buf.push(Transition {
            state: vec![0.0; 2],
            next_state: vec![0.0; 2],
            ..t(0.0)
        });
        buf.push(Transition {
            state: vec![0.0; 2],
            next_state: vec![0.0; 1],
            ..t(1.0)
        });
    }

    #[test]
    fn sample_into_reuses_buffers() {
        let mut buf = ReplayBuffer::new(4, 0);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mut mb = MiniBatch::new();
        buf.sample_into(4, &mut rng, &mut mb);
        let cap = mb.states.capacity();
        buf.sample_into(4, &mut rng, &mut mb);
        assert_eq!(mb.states.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampling_empty_panics() {
        let buf = ReplayBuffer::new(4, 0);
        let mut rng = SmallRng::seed_from_u64(0);
        buf.sample_into(1, &mut rng, &mut MiniBatch::new());
    }
}
