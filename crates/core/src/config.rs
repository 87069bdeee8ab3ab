use gridwatch_grid::{DecayKernel, GridConfig, GrowthPolicy};
use serde::{Deserialize, Serialize};

use crate::ModelError;

/// Configuration of a [`crate::TransitionModel`].
///
/// # Example
///
/// ```
/// use gridwatch_core::{DecayKernel, ModelConfig};
///
/// let config = ModelConfig::builder()
///     .decay_rate(2.0)
///     .kernel(DecayKernel::MeanAxis)
///     .update_threshold(0.001)
///     .build()?;
/// assert_eq!(config.decay_rate, 2.0);
/// # Ok::<(), gridwatch_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Grid construction parameters (Section 4.1).
    pub grid: GridConfig,
    /// The spatial-closeness decay kernel; the default reproduces the
    /// paper's Figure 5 matrix.
    pub kernel: DecayKernel,
    /// The decay rate `w` ("the rate of probability decrease"); the
    /// paper's example uses 2.
    pub decay_rate: f64,
    /// Online grid growth policy (`λ`; Section 4.1, "Update").
    pub growth: GrowthPolicy,
    /// The threshold `δ` on the transition probability below which an
    /// observation is considered anomalous and **excluded from model
    /// updates** ("we update the transition probability only on normal
    /// points"). `0.0` updates on every in-grid observation.
    pub update_threshold: f64,
    /// Whether [`crate::TransitionModel::observe`] adapts the model at
    /// all (the paper's *Adaptive* mode) or scores without learning
    /// (*Offline* mode, Figure 13a).
    pub adaptive: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            grid: GridConfig::default(),
            kernel: DecayKernel::default(),
            decay_rate: 2.0,
            growth: GrowthPolicy::default(),
            update_threshold: 0.0,
            adaptive: true,
        }
    }
}

impl ModelConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ModelConfigBuilder {
        ModelConfigBuilder {
            config: ModelConfig::default(),
        }
    }

    /// An offline (non-adaptive) variant of this configuration.
    pub fn frozen(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for an out-of-range
    /// parameter, or the underlying grid-config error.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.grid.validate()?;
        if self.decay_rate <= 1.0 {
            return Err(ModelError::InvalidConfig {
                reason: format!("decay_rate must exceed 1, got {}", self.decay_rate),
            });
        }
        if !(0.0..=1.0).contains(&self.update_threshold) {
            return Err(ModelError::InvalidConfig {
                reason: format!(
                    "update_threshold must be in [0, 1], got {}",
                    self.update_threshold
                ),
            });
        }
        if self.growth.lambda < 0.0 {
            return Err(ModelError::InvalidConfig {
                reason: format!(
                    "growth lambda must be non-negative, got {}",
                    self.growth.lambda
                ),
            });
        }
        Ok(())
    }
}

/// Builder for [`ModelConfig`]; see [`ModelConfig::builder`].
#[derive(Debug, Clone)]
pub struct ModelConfigBuilder {
    config: ModelConfig,
}

impl ModelConfigBuilder {
    /// Sets the grid construction parameters.
    pub fn grid(mut self, grid: GridConfig) -> Self {
        self.config.grid = grid;
        self
    }

    /// Sets the decay kernel.
    pub fn kernel(mut self, kernel: DecayKernel) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Sets the decay rate `w`.
    pub fn decay_rate(mut self, w: f64) -> Self {
        self.config.decay_rate = w;
        self
    }

    /// Sets the growth policy.
    pub fn growth(mut self, growth: GrowthPolicy) -> Self {
        self.config.growth = growth;
        self
    }

    /// Sets the update threshold `δ`.
    pub fn update_threshold(mut self, delta: f64) -> Self {
        self.config.update_threshold = delta;
        self
    }

    /// Sets adaptive (online-learning) mode on or off.
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.config.adaptive = adaptive;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for out-of-range parameters.
    pub fn build(self) -> Result<ModelConfig, ModelError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ModelConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_sets_fields() {
        let c = ModelConfig::builder()
            .decay_rate(3.0)
            .update_threshold(0.01)
            .adaptive(false)
            .build()
            .unwrap();
        assert_eq!(c.decay_rate, 3.0);
        assert_eq!(c.update_threshold, 0.01);
        assert!(!c.adaptive);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ModelConfig::builder().decay_rate(1.0).build().is_err());
        assert!(ModelConfig::builder()
            .update_threshold(2.0)
            .build()
            .is_err());
        assert!(ModelConfig::builder()
            .growth(GrowthPolicy { lambda: -1.0 })
            .build()
            .is_err());
    }

    #[test]
    fn frozen_clears_adaptive() {
        let c = ModelConfig::default().frozen();
        assert!(!c.adaptive);
    }
}
