//! # idpa-game — finite game framework
//!
//! §2.4 of the paper models forwarding and routing as a **finite multi-stage
//! game**: at each stage a peer chooses among (a) not participating,
//! (b) forwarding and routing randomly, (c) forwarding and routing
//! non-randomly, and the analysis asks for dominant strategies (Prop. 3),
//! participation-inducing conditions (Prop. 2) and subgame perfect Nash
//! equilibria of the L-stage path-formation game (utility model II).
//!
//! This crate provides the general machinery —
//!
//! * [`normal::NormalFormGame`]: n-player one-shot games with best
//!   responses, iterated elimination of strictly dominated strategies and
//!   pure Nash enumeration;
//! * [`extensive::GameTree`]: finite extensive-form games solved by one
//!   backward induction, yielding subgame perfect equilibria — the oracle
//!   the Model II router is tested against;
//! * [`forwarding`]: the paper's forwarding/routing stage game expressed in
//!   that machinery, with numeric verification of the Prop. 2 and Prop. 3
//!   thresholds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod extensive;
pub mod forwarding;
pub mod normal;

pub use extensive::{GameTree, NodeRef, SpneSolution};
pub use forwarding::{ForwardingStageGame, StageAction};
pub use normal::NormalFormGame;
