//! Routing error types.

use std::error::Error;
use std::fmt;

/// Why routing (or verification of a routed circuit) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit uses more logical qubits than the device has physical
    /// qubits (the paper assumes `N ≥ n`).
    TooManyQubits {
        /// Logical qubits required.
        logical: usize,
        /// Physical qubits available.
        physical: usize,
    },
    /// The circuit contains a gate on 3+ qubits; decompose first
    /// (see `codar_circuit::decompose`).
    UnsupportedGate {
        /// Display form of the offending gate.
        gate: String,
    },
    /// The coupling graph cannot connect two qubits a gate needs.
    Disconnected {
        /// The physical endpoints with no path between them.
        a: usize,
        /// Second endpoint.
        b: usize,
    },
    /// The initial mapping does not place exactly the circuit's qubits
    /// on the device's.
    MappingShape {
        /// Logical qubits the mapping places.
        logical: usize,
        /// Physical qubits the mapping spans.
        physical: usize,
        /// Qubits the circuit uses.
        circuit: usize,
        /// Qubits the device has.
        device: usize,
    },
    /// A verification check failed (see `verify`).
    Verification(String),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooManyQubits { logical, physical } => write!(
                f,
                "circuit needs {logical} qubits but the device has only {physical}"
            ),
            RouteError::UnsupportedGate { gate } => {
                write!(
                    f,
                    "unsupported gate for routing: {gate} (decompose to <=2 qubits first)"
                )
            }
            RouteError::Disconnected { a, b } => {
                write!(f, "no coupling path between physical qubits {a} and {b}")
            }
            RouteError::MappingShape {
                logical,
                physical,
                circuit,
                device,
            } => write!(
                f,
                "initial mapping places {logical} logical on {physical} physical qubits, \
                 but the circuit has {circuit} qubits and the device {device}"
            ),
            RouteError::Verification(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RouteError::TooManyQubits {
            logical: 10,
            physical: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));
        let e = RouteError::Disconnected { a: 1, b: 3 };
        assert!(e.to_string().contains("no coupling path"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<RouteError>();
    }
}
