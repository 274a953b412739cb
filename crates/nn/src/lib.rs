//! # hrp-nn — a from-scratch deep-RL substrate
//!
//! The paper implements its agent with PyTorch: a **dueling double deep
//! Q-network** (Wang et al., ICML'16; van Hasselt et al., AAAI'16) with
//! three fully-connected hidden layers (512/256/128, ReLU), a V head and
//! an A head (Table VI). No ML framework is available in this workspace,
//! so this crate implements the needed pieces directly:
//!
//! * [`tensor`] — dense **batched** (`B × n`) kernels, register-tiled
//!   over independent lanes in safe Rust, so they stream each weight
//!   matrix once per minibatch and give the same bits on every target;
//! * [`layers`] — fully-connected layer (weights and biases only) and
//!   ReLU with exact batched backprop;
//! * [`net`] — the Q-network: MLP trunk + plain or dueling head, with
//!   `forward_batch` / `predict_batch_into` / `backward_batch` as its
//!   one interface at every batch size; the backward pass keeps no
//!   gradient, it hands each block of one to the optimiser;
//! * [`opt`] — Adam (Kingma & Ba) over the flattened parameter vector,
//!   one step per learning step that updates each block of parameters
//!   as the backward pass hands over its gradient;
//! * [`replay`] — a ring replay buffer with action masking support,
//!   contiguous-minibatch sampling ([`replay::MiniBatch`]) and the
//!   learner's target Q-row cached beside each state;
//! * [`schedule`] — the exploration schedule: linear ε decay from 1.0
//!   to a configured floor (the paper quotes 0.01; training exposes it
//!   as `TrainConfig::eps_end`), then ε = 0 online;
//! * [`dqn`] — the agent: ε-greedy action selection with RNG-stream tie
//!   breaking, double-DQN targets, Huber loss, periodic target-network
//!   sync; one `learn()` call runs the whole minibatch batched;
//! * [`infer`] — the one single-sample Q evaluation:
//!   [`infer::FastPolicy`] pre-plans the layer walk over panel-packed
//!   weights, runs in caller-owned scratch, and its one safe kernel
//!   gives the same bits on every target;
//! * [`serialize`] — the checkpoint codec: the one bounds-checked
//!   container, spec and reader behind all four blob formats, and the
//!   `HRPQ` weight blob itself.
//!
//! Everything is deterministic for a fixed seed (`rand::SmallRng`), the
//! backprop code is validated against numerical gradients in tests, the
//! batched kernels are pinned bit for bit to a scalar reference
//! (`tests/kernel_contract.rs`), the inference kernel to its own scalar
//! reference (`tests/infer_contract.rs`) and the learning step to a
//! golden of losses and weights (`tests/batch_parallel.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

pub mod dqn;
pub mod infer;
pub mod layers;
pub mod net;
pub mod opt;
pub mod replay;
pub mod schedule;
pub mod serialize;
pub mod tensor;

pub use dqn::{ActionScratch, DqnAgent, DqnConfig};
pub use infer::{FastPolicy, InferScratch};
pub use net::{Head, PredictScratch, QNet};
pub use opt::Adam;
pub use replay::{MiniBatch, ReplayBuffer, Transition};
pub use schedule::EpsilonSchedule;
pub use tensor::{masked_argmax, masked_argmax_tiebreak, masked_uniform};
