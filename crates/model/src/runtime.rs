//! The runtime-prediction interface shared by the hardware oracle (ground
//! truth) and the ML runtime estimator (prediction).
//!
//! The end-to-end simulator is generic over this trait: running it once with
//! the oracle and once with the estimator — same scheduler, same trace, same
//! seed — isolates runtime-prediction error, which is exactly the fidelity
//! quantity the paper's Figures 3, 4, 7 and 8 report.

use crate::operators::OpInvocation;

/// Predicts operator execution times in seconds.
pub trait RuntimePredictor {
    /// Time for a single execution of the invocation's operator on its
    /// input (not multiplied by `count`).
    fn op_time(&self, inv: &OpInvocation) -> f64;

    /// Total time for an invocation including its repetition count.
    fn invocation_time(&self, inv: &OpInvocation) -> f64 {
        self.op_time(inv) * inv.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{OpInput, Operator};

    /// A predictor charging 1 µs per operator execution.
    struct Flat;
    impl RuntimePredictor for Flat {
        fn op_time(&self, _inv: &OpInvocation) -> f64 {
            1e-6
        }
    }

    #[test]
    fn invocation_time_multiplies_count() {
        let inv = OpInvocation::new(Operator::QkvProj, OpInput::Matmul { m: 1, k: 1, n: 1 }, 32);
        assert!((Flat.invocation_time(&inv) - 32e-6).abs() < 1e-12);
    }

    #[test]
    fn trait_object_and_ref_forwarding() {
        let boxed: Box<dyn RuntimePredictor> = Box::new(Flat);
        let inv = OpInvocation::new(
            Operator::Rope,
            OpInput::Pointwise {
                tokens: 1,
                width: 1,
            },
            2,
        );
        assert_eq!(boxed.op_time(&inv), 1e-6);
        let by_ref: &dyn RuntimePredictor = &Flat;
        assert_eq!(by_ref.invocation_time(&inv), 2e-6);
    }
}
