//! Experiment configuration schema.
//!
//! A run is described by one JSON document (see [`RunConfig::example`]):
//! the federated dataset, the model family, the training algorithm, an
//! optional simulated network, and the target-evaluation protocol. Every
//! enum is internally tagged with `"kind"`.

use serde::{Deserialize, Serialize};

/// Top-level experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// RNG seed for everything (generation, splits, training, eval).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Fraction of nodes used as meta-training sources (rest = targets).
    #[serde(default = "default_source_frac")]
    pub source_frac: f64,
    /// The federated dataset.
    pub dataset: DatasetConfig,
    /// The model family.
    pub model: ModelConfig,
    /// The training algorithm.
    pub algorithm: AlgorithmConfig,
    /// Optional simulated network (omit = run the algorithm directly).
    #[serde(default)]
    pub simulate: Option<SimulateConfig>,
    /// Target-evaluation protocol.
    #[serde(default)]
    pub eval: EvalConfig,
}

fn default_seed() -> u64 {
    7
}

fn default_source_frac() -> f64 {
    0.8
}

impl RunConfig {
    /// A ready-to-edit example configuration.
    pub fn example() -> Self {
        RunConfig {
            seed: 7,
            source_frac: 0.8,
            dataset: DatasetConfig::Synthetic {
                alpha: 0.5,
                beta: 0.5,
                nodes: 30,
                dim: 20,
                classes: 5,
                mean_samples: 24.0,
            },
            model: ModelConfig::Softmax { l2: 1e-3 },
            algorithm: AlgorithmConfig::Fedml {
                alpha: 0.05,
                beta: 0.05,
                local_steps: 5,
                rounds: 60,
                first_order: false,
            },
            simulate: Some(SimulateConfig {
                network: NetworkKind::Edge,
                dropout: 0.0,
                client_fraction: 1.0,
                straggler_frac: 0.0,
                straggler_speed: 0.25,
                wait_fraction: 1.0,
                iteration_time_s: 0.01,
            }),
            eval: EvalConfig::default(),
        }
    }

    /// Validates cross-field constraints the type system cannot express.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.source_frac > 0.0 && self.source_frac < 1.0) {
            return Err("source_frac must be in (0, 1)".into());
        }
        if self.eval.k == 0 {
            return Err("eval.k must be at least 1".into());
        }
        match &self.algorithm {
            AlgorithmConfig::Fedml {
                alpha,
                beta,
                local_steps,
                ..
            }
            | AlgorithmConfig::RobustFedml {
                alpha,
                beta,
                local_steps,
                ..
            } => {
                if *alpha <= 0.0 || *beta <= 0.0 {
                    return Err("learning rates must be positive".into());
                }
                if *local_steps == 0 {
                    return Err("local_steps must be at least 1".into());
                }
            }
            AlgorithmConfig::Fedavg {
                lr, local_steps, ..
            }
            | AlgorithmConfig::Fedprox {
                lr, local_steps, ..
            } => {
                if *lr <= 0.0 {
                    return Err("learning rate must be positive".into());
                }
                if *local_steps == 0 {
                    return Err("local_steps must be at least 1".into());
                }
            }
            AlgorithmConfig::Reptile {
                inner_lr,
                outer_lr,
                inner_steps,
                ..
            } => {
                if *inner_lr <= 0.0 || *outer_lr <= 0.0 || *outer_lr > 1.0 {
                    return Err("reptile rates must be positive (outer ≤ 1)".into());
                }
                if *inner_steps == 0 {
                    return Err("inner_steps must be at least 1".into());
                }
            }
            AlgorithmConfig::Metasgd {
                alpha_init,
                beta,
                local_steps,
                ..
            } => {
                if *alpha_init <= 0.0 || *beta <= 0.0 {
                    return Err("meta-sgd rates must be positive".into());
                }
                if *local_steps == 0 {
                    return Err("local_steps must be at least 1".into());
                }
            }
        }
        match &self.algorithm {
            AlgorithmConfig::RobustFedml { lambda, n0, .. } => {
                if !(0.0..).contains(lambda) {
                    return Err("lambda must be non-negative".into());
                }
                if *n0 == 0 {
                    return Err("n0 must be at least 1".into());
                }
            }
            AlgorithmConfig::Fedprox { prox, .. } if !(0.0..).contains(prox) => {
                return Err("prox must be non-negative".into());
            }
            _ => {}
        }
        if let Some(sim) = &self.simulate {
            if !(0.0..1.0).contains(&sim.dropout) {
                return Err("simulate.dropout must be in [0, 1)".into());
            }
            if !(sim.client_fraction > 0.0 && sim.client_fraction <= 1.0) {
                return Err("simulate.client_fraction must be in (0, 1]".into());
            }
            if !(sim.wait_fraction > 0.0 && sim.wait_fraction <= 1.0) {
                return Err("simulate.wait_fraction must be in (0, 1]".into());
            }
            if matches!(
                self.algorithm,
                AlgorithmConfig::RobustFedml { .. } | AlgorithmConfig::Metasgd { .. }
            ) {
                return Err(
                    "simulate supports fedml, fedavg, fedprox, and reptile; drop the simulate \
                     section to run robust-fedml or metasgd directly"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

/// Dataset generators (see `fml-data`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DatasetConfig {
    /// The paper-exact FedProx-style generator.
    Synthetic {
        /// Model-mean heterogeneity knob α̃.
        alpha: f64,
        /// Input-mean heterogeneity knob β̃.
        beta: f64,
        /// Node count.
        nodes: usize,
        /// Feature dimension.
        dim: usize,
        /// Class count.
        classes: usize,
        /// Mean samples per node (power law).
        mean_samples: f64,
    },
    /// Shared-base generator with a real similarity knob.
    SharedSynthetic {
        /// Per-node model deviation.
        model_dev: f64,
        /// Per-node input-mean deviation.
        input_dev: f64,
        /// Node count.
        nodes: usize,
        /// Feature dimension.
        dim: usize,
        /// Class count.
        classes: usize,
        /// Mean samples per node (power law).
        mean_samples: f64,
    },
    /// MNIST-like image federation (2 digits per node).
    MnistLike {
        /// Node count.
        nodes: usize,
        /// Pixel dimension.
        dim: usize,
        /// Mean samples per node (power law).
        mean_samples: f64,
    },
    /// Sent140-like text-sentiment federation.
    Sent140Like {
        /// User count.
        users: usize,
        /// Embedding dimension.
        embed_dim: usize,
        /// Mean samples per user (power law).
        mean_samples: f64,
    },
}

/// Model families (see `fml-models`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ModelConfig {
    /// Multinomial logistic regression.
    Softmax {
        /// L2 weight decay.
        l2: f64,
    },
    /// Multi-layer perceptron with tanh activations.
    Mlp {
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// L2 weight decay.
        l2: f64,
    },
}

/// Training algorithms (see `fml-core`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AlgorithmConfig {
    /// Algorithm 1 (FedML).
    Fedml {
        /// Inner rate α.
        alpha: f64,
        /// Meta rate β.
        beta: f64,
        /// Local steps T0.
        local_steps: usize,
        /// Communication rounds.
        rounds: usize,
        /// Use the first-order (FOMAML) approximation.
        #[serde(default)]
        first_order: bool,
    },
    /// Algorithm 2 (Robust FedML).
    RobustFedml {
        /// Inner rate α.
        alpha: f64,
        /// Meta rate β.
        beta: f64,
        /// Local steps T0.
        local_steps: usize,
        /// Communication rounds.
        rounds: usize,
        /// Wasserstein penalty λ.
        lambda: f64,
        /// Ascent steps Ta.
        ascent_steps: usize,
        /// Generate adversarial data every `n0 · T0` iterations.
        n0: usize,
        /// Maximum generation rounds R.
        max_generations: usize,
        /// Clamp generated inputs to `[clamp_lo, clamp_hi]` when set.
        #[serde(default)]
        clamp: Option<(f64, f64)>,
    },
    /// FedAvg baseline.
    Fedavg {
        /// Learning rate.
        lr: f64,
        /// Local steps T0.
        local_steps: usize,
        /// Communication rounds.
        rounds: usize,
    },
    /// FedProx baseline.
    Fedprox {
        /// Learning rate.
        lr: f64,
        /// Proximal coefficient.
        prox: f64,
        /// Local steps T0.
        local_steps: usize,
        /// Communication rounds.
        rounds: usize,
    },
    /// Reptile baseline.
    Reptile {
        /// Inner SGD rate.
        inner_lr: f64,
        /// Outer interpolation rate.
        outer_lr: f64,
        /// Inner steps per round.
        inner_steps: usize,
        /// Communication rounds.
        rounds: usize,
    },
    /// Meta-SGD extension (learned per-coordinate inner rates).
    Metasgd {
        /// Initial inner rate.
        alpha_init: f64,
        /// Meta rate β.
        beta: f64,
        /// Local steps T0.
        local_steps: usize,
        /// Communication rounds.
        rounds: usize,
    },
}

/// Network model for simulated runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum NetworkKind {
    /// Asymmetric lossy edge links.
    Edge,
    /// Free, instantaneous links.
    Ideal,
}

/// Simulated-deployment parameters (see `fml-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulateConfig {
    /// Link model.
    pub network: NetworkKind,
    /// Per-node per-round dropout probability.
    #[serde(default)]
    pub dropout: f64,
    /// Client-sampling fraction C.
    #[serde(default = "default_client_fraction")]
    pub client_fraction: f64,
    /// Fraction of straggler nodes.
    #[serde(default)]
    pub straggler_frac: f64,
    /// Straggler speed multiplier.
    #[serde(default = "default_straggler_speed")]
    pub straggler_speed: f64,
    /// Platform waits for the fastest fraction of participants.
    #[serde(default = "default_client_fraction")]
    pub wait_fraction: f64,
    /// Nominal seconds per local iteration.
    #[serde(default = "default_iteration_time")]
    pub iteration_time_s: f64,
}

fn default_client_fraction() -> f64 {
    1.0
}

fn default_straggler_speed() -> f64 {
    0.25
}

fn default_iteration_time() -> f64 {
    0.01
}

/// Target-evaluation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Support size K at each target.
    pub k: usize,
    /// Adaptation gradient steps.
    pub adapt_steps: usize,
    /// Adaptation learning rate.
    pub adapt_lr: f64,
    /// Additionally evaluate under FGSM with this ξ when set.
    #[serde(default)]
    pub fgsm_xi: Option<f64>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            k: 5,
            adapt_steps: 10,
            adapt_lr: 0.05,
            fgsm_xi: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_is_valid_and_roundtrips() {
        let cfg = RunConfig::example();
        cfg.validate().expect("example must be valid");
        // One more input: no `simulate`, and a tagged variant holding an
        // `Option` of a pair.
        let robust = RunConfig {
            algorithm: AlgorithmConfig::RobustFedml {
                alpha: 0.1,
                beta: 0.1,
                local_steps: 5,
                rounds: 3,
                lambda: 1.0,
                ascent_steps: 5,
                n0: 1,
                max_generations: 2,
                clamp: Some((0.0, 1.0)),
            },
            simulate: None,
            ..RunConfig::example()
        };
        for cfg in [cfg, robust] {
            let json = serde_json::to_string_pretty(&cfg).unwrap();
            let back: RunConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
        }
    }

    #[test]
    fn kind_tags_are_snake_case() {
        let json = serde_json::to_string(&RunConfig::example().dataset).unwrap();
        assert!(json.contains(r#""kind":"synthetic""#), "{json}");
    }

    #[test]
    fn minimal_document_uses_defaults() {
        let json = r#"{
            "dataset": {"kind": "mnist_like", "nodes": 10, "dim": 16, "mean_samples": 20.0},
            "model": {"kind": "softmax", "l2": 0.001},
            "algorithm": {"kind": "fedavg", "lr": 0.05, "local_steps": 5, "rounds": 3}
        }"#;
        let cfg: RunConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.eval.k, 5);
        assert!(cfg.simulate.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut cfg = RunConfig::example();
        cfg.algorithm = AlgorithmConfig::Fedml {
            alpha: -1.0,
            beta: 0.1,
            local_steps: 5,
            rounds: 3,
            first_order: false,
        };
        assert!(cfg.validate().is_err());
    }

    /// Each of these reached a trainer builder's `assert!` before the
    /// check existed, so `fedml run` panicked instead of reporting it.
    #[test]
    fn validation_rejects_what_a_trainer_builder_would_panic_on() {
        let robust = |lambda, n0| AlgorithmConfig::RobustFedml {
            alpha: 0.1,
            beta: 0.1,
            local_steps: 5,
            rounds: 3,
            lambda,
            ascent_steps: 5,
            n0,
            max_generations: 2,
            clamp: None,
        };
        let cases = [
            (
                AlgorithmConfig::Metasgd {
                    alpha_init: 0.1,
                    beta: 0.1,
                    local_steps: 0,
                    rounds: 3,
                },
                "local_steps must be at least 1",
            ),
            (
                AlgorithmConfig::Reptile {
                    inner_lr: 0.1,
                    outer_lr: 0.5,
                    inner_steps: 0,
                    rounds: 3,
                },
                "inner_steps must be at least 1",
            ),
            (robust(1.0, 0), "n0 must be at least 1"),
            (robust(-0.5, 1), "lambda must be non-negative"),
            (
                AlgorithmConfig::Fedprox {
                    lr: 0.1,
                    prox: -0.1,
                    local_steps: 5,
                    rounds: 3,
                },
                "prox must be non-negative",
            ),
        ];
        for (algorithm, message) in cases {
            let cfg = RunConfig {
                algorithm,
                simulate: None,
                ..RunConfig::example()
            };
            assert_eq!(cfg.validate(), Err(message.to_string()));
        }
    }

    #[test]
    fn validation_rejects_simulated_robust() {
        let mut cfg = RunConfig::example();
        cfg.algorithm = AlgorithmConfig::RobustFedml {
            alpha: 0.1,
            beta: 0.1,
            local_steps: 5,
            rounds: 3,
            lambda: 1.0,
            ascent_steps: 5,
            n0: 1,
            max_generations: 2,
            clamp: Some((0.0, 1.0)),
        };
        assert!(
            cfg.validate().is_err(),
            "robust + simulate must be rejected"
        );
        cfg.simulate = None;
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_source_frac() {
        let mut cfg = RunConfig::example();
        cfg.source_frac = 1.0;
        assert!(cfg.validate().is_err());
    }

    /// The simulator takes these fractions as they come; this is the
    /// check between a config file and `SimRunner`.
    #[test]
    fn validation_rejects_simulate_fractions_outside_unit_interval() {
        let with = |client_fraction, wait_fraction| {
            let mut cfg = RunConfig::example();
            let sim = cfg.simulate.as_mut().expect("the example simulates");
            sim.client_fraction = client_fraction;
            sim.wait_fraction = wait_fraction;
            cfg.validate()
        };
        assert_eq!(with(0.5, 0.75), Ok(()));
        for bad in [0.0, 1.5, f64::NAN] {
            let client = with(bad, 1.0).unwrap_err();
            assert_eq!(client, "simulate.client_fraction must be in (0, 1]");
            let wait = with(1.0, bad).unwrap_err();
            assert_eq!(wait, "simulate.wait_fraction must be in (0, 1]");
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let json = r#"{"kind": "quantum", "l2": 0.1}"#;
        assert!(serde_json::from_str::<ModelConfig>(json).is_err());
    }
}
