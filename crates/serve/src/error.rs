//! The fleet-serving error contract.
//!
//! Fleet serving has failure modes the engine's [`Error`] type doesn't
//! cover: a request can be *refused* before it ever touches an engine.
//! Those refusals are explicit and typed — the SLO contract is "answers
//! within the deadline, or an error that says why not", never silent queue
//! growth.

use std::fmt;
use webml_core::Error;

/// Why a fleet request did not produce an inference result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request's deadline expired before it reached a batch slot.
    /// Deadline enforcement happens at dequeue: an expired request is
    /// rejected instead of occupying capacity other requests could use.
    DeadlineExceeded {
        /// How long the request waited before being rejected, milliseconds.
        waited_ms: f64,
        /// The deadline budget it carried, milliseconds.
        budget_ms: f64,
    },
    /// Admission control refused the request at enqueue: every healthy
    /// engine's predicted wait (queue depth × observed per-request latency)
    /// already exceeds the request's deadline budget, so queueing it would
    /// only manufacture a guaranteed deadline miss.
    Overloaded {
        /// Predicted wait on the least-loaded candidate engine, ms.
        predicted_wait_ms: f64,
        /// The deadline budget the request carried, ms.
        budget_ms: f64,
    },
    /// The per-engine queue cap was hit — backpressure instead of unbounded
    /// memory growth.
    QueueFull {
        /// The configured per-engine queue capacity.
        capacity: usize,
    },
    /// No engine is currently admitting work for this request (all circuit
    /// breakers open, or the fleet is draining).
    NoHealthyEngine,
    /// The request itself was malformed (unknown model, shape mismatch).
    Rejected(String),
    /// Every re-route attempt exhausted: the underlying engine error, after
    /// the fleet already tried other engines. With the PR-1 ladder intact
    /// this is reserved for logic errors, not device faults.
    Engine(Error),
    /// The fleet shut down before replying.
    Shutdown,
}

impl ServeError {
    /// Whether this is an explicit load-shed (admission refusal or queue
    /// cap) — the overload contract, as opposed to a per-request problem.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. } | ServeError::QueueFull { .. } | ServeError::NoHealthyEngine
        )
    }

    /// Whether the fleet refused the request without executing it (sheds,
    /// deadline rejections, malformed requests, shutdown) — everything
    /// except an engine execution failure.
    pub fn is_refusal(&self) -> bool {
        !matches!(self, ServeError::Engine(_))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded { waited_ms, budget_ms } => write!(
                f,
                "deadline exceeded: waited {waited_ms:.2} ms of a {budget_ms:.2} ms budget"
            ),
            ServeError::Overloaded { predicted_wait_ms, budget_ms } => write!(
                f,
                "overloaded: predicted wait {predicted_wait_ms:.2} ms exceeds the \
                 {budget_ms:.2} ms deadline budget"
            ),
            ServeError::QueueFull { capacity } => {
                write!(f, "engine queue full ({capacity} requests)")
            }
            ServeError::NoHealthyEngine => write!(f, "no healthy engine is admitting work"),
            ServeError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            ServeError::Engine(e) => write!(f, "engine error after re-route attempts: {e}"),
            ServeError::Shutdown => write!(f, "fleet shut down before replying"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<Error> for ServeError {
    fn from(e: Error) -> ServeError {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_classification() {
        assert!(ServeError::Overloaded { predicted_wait_ms: 9.0, budget_ms: 5.0 }.is_shed());
        assert!(ServeError::QueueFull { capacity: 64 }.is_shed());
        assert!(ServeError::NoHealthyEngine.is_shed());
        assert!(!ServeError::DeadlineExceeded { waited_ms: 6.0, budget_ms: 5.0 }.is_shed());
        assert!(!ServeError::Engine(Error::invalid("serve", "x")).is_shed());
        assert!(!ServeError::Engine(Error::invalid("serve", "x")).is_refusal());
        assert!(ServeError::DeadlineExceeded { waited_ms: 6.0, budget_ms: 5.0 }.is_refusal());
    }

    #[test]
    fn displays_are_informative() {
        let e = ServeError::DeadlineExceeded { waited_ms: 12.5, budget_ms: 10.0 };
        assert!(e.to_string().contains("12.50"));
        let e = ServeError::Overloaded { predicted_wait_ms: 80.0, budget_ms: 20.0 };
        assert!(e.to_string().contains("overloaded"));
        let _: &dyn std::error::Error = &e;
    }
}
