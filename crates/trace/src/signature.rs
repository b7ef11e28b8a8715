//! Message signatures: the arc key of Figures 6 and 7.
//!
//! The paper visualises each application's *dominant incoming message
//! signatures* as a graph whose nodes are message types and whose arcs are
//! consecutive-arrival pairs for the same cache block at the same agent
//! role. Each arc is labelled `X/Y` where `Y` is the percentage of all
//! arc references the pair accounts for and `X` the prediction accuracy on
//! that arc; `cosmos::eval` counts both in one replay, keyed by
//! [`ArcKey`].

use stache::{MsgType, Role};
use std::fmt;

/// An arc: at agents of `role`, a message of type `prev` for a block was
/// followed by one of type `next` for the same block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcKey {
    /// The receiving agent's role.
    pub role: Role,
    /// Type of the earlier message.
    pub prev: MsgType,
    /// Type of the later message.
    pub next: MsgType,
}

impl fmt::Display for ArcKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {}",
            self.role,
            self.prev.paper_name(),
            self.next.paper_name()
        )
    }
}
