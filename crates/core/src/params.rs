//! Model parameters: input size, peer count, fault budget, message size.
//!
//! A DR instance is described by `n` (bits of input), `k` (peers), `b`
//! (fault budget, `b = βk`), the fault model (crash or Byzantine), and the
//! message-size parameter `a` (maximum bits per message). [`ModelParams`]
//! validates the combination and derives the quantities the protocols and
//! bounds are stated in terms of (`β`, `γ = 1 − β`, `k − b`, …).

use crate::error::InvalidParamsError;

/// Which failure model the adversary operates under (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Faulty peers halt permanently, possibly mid-send.
    Crash,
    /// Faulty peers deviate arbitrarily from the protocol.
    Byzantine,
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultModel::Crash => write!(f, "crash"),
            FaultModel::Byzantine => write!(f, "byzantine"),
        }
    }
}

/// Validated parameters of one DR instance.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams};
///
/// let p = ModelParams::builder(1024, 16)
///     .faults(FaultModel::Crash, 4)
///     .message_bits(256)
///     .build()?;
/// assert_eq!(p.beta(), 0.25);
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    n: usize,
    k: usize,
    b: usize,
    fault_model: FaultModel,
    msg_bits: usize,
}

impl ModelParams {
    /// Starts building parameters for `n` input bits and `k` peers.
    pub fn builder(n: usize, k: usize) -> ModelParamsBuilder {
        ModelParamsBuilder {
            n,
            k,
            b: 0,
            fault_model: FaultModel::Crash,
            msg_bits: 1024,
        }
    }

    /// Convenience constructor for a fault-free instance.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `k == 0`.
    pub fn fault_free(n: usize, k: usize) -> Result<Self, InvalidParamsError> {
        ModelParams::builder(n, k).build()
    }

    /// Number of input bits.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of peers.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fault budget `b` (maximum number of faulty peers).
    #[inline]
    pub fn b(&self) -> usize {
        self.b
    }

    /// Fault fraction `β = b / k`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.b as f64 / self.k as f64
    }

    /// Honest fraction `γ = 1 − β`.
    #[inline]
    pub fn gamma(&self) -> f64 {
        1.0 - self.beta()
    }

    /// The failure model in force.
    #[inline]
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// Maximum message size `a`, in bits.
    #[inline]
    pub fn msg_bits(&self) -> usize {
        self.msg_bits
    }
}

impl std::fmt::Display for ModelParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} k={} b={} ({}) a={}",
            self.n, self.k, self.b, self.fault_model, self.msg_bits
        )
    }
}

/// Builder for [`ModelParams`].
#[derive(Debug, Clone)]
pub struct ModelParamsBuilder {
    n: usize,
    k: usize,
    b: usize,
    fault_model: FaultModel,
    msg_bits: usize,
}

impl ModelParamsBuilder {
    /// Sets the fault model and budget.
    pub fn faults(mut self, model: FaultModel, b: usize) -> Self {
        self.fault_model = model;
        self.b = b;
        self
    }

    /// Sets the maximum message size in bits.
    pub fn message_bits(mut self, a: usize) -> Self {
        self.msg_bits = a;
        self
    }

    /// Validates and produces the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] when `n == 0`, `k == 0`,
    /// `k > u32::MAX` (peer ids are stored in 32 bits), `b >= k` (at least
    /// one peer must be nonfaulty), or `msg_bits == 0`.
    pub fn build(self) -> Result<ModelParams, InvalidParamsError> {
        if self.n == 0 {
            return Err(InvalidParamsError::new("input length n must be positive"));
        }
        if self.k == 0 {
            return Err(InvalidParamsError::new("peer count k must be positive"));
        }
        if u32::try_from(self.k).is_err() {
            return Err(InvalidParamsError::new(format!(
                "peer count k={} does not fit the 32-bit peer ids",
                self.k
            )));
        }
        if self.b >= self.k {
            return Err(InvalidParamsError::new(format!(
                "fault budget b={} must leave at least one nonfaulty peer out of k={}",
                self.b, self.k
            )));
        }
        if self.msg_bits == 0 {
            return Err(InvalidParamsError::new("message size must be positive"));
        }
        Ok(ModelParams {
            n: self.n,
            k: self.k,
            b: self.b,
            fault_model: self.fault_model,
            msg_bits: self.msg_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let p = ModelParams::fault_free(100, 10).unwrap();
        assert_eq!(p.b(), 0);
        assert_eq!(p.beta(), 0.0);
        assert_eq!(p.gamma(), 1.0);
    }

    #[test]
    fn rejects_all_faulty() {
        let err = ModelParams::builder(10, 4)
            .faults(FaultModel::Crash, 4)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nonfaulty"));
    }

    #[test]
    fn rejects_zero_sizes() {
        assert!(ModelParams::fault_free(0, 4).is_err());
        assert!(ModelParams::fault_free(4, 0).is_err());
        assert!(ModelParams::builder(4, 2).message_bits(0).build().is_err());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn rejects_peer_ids_past_u32() {
        let most = u32::MAX as usize;
        assert!(ModelParams::fault_free(8, most).is_ok());
        let err = ModelParams::fault_free(8, most + 1).unwrap_err();
        assert!(err.to_string().contains("32-bit peer ids"));
    }

    #[test]
    fn display_is_informative() {
        let p = ModelParams::builder(8, 4)
            .faults(FaultModel::Byzantine, 1)
            .build()
            .unwrap();
        let s = p.to_string();
        assert!(s.contains("n=8") && s.contains("byzantine"));
    }
}
