//! Facade crate re-exporting the full `fedml-rs` workspace.
//!
//! Downstream users can depend on `fedml-rs` alone and reach every layer:
//!
//! ```
//! use fedml_rs::prelude::*;
//! let model = SoftmaxRegression::new(4, 3);
//! assert_eq!(model.param_len(), 4 * 3 + 3);
//! ```

#![forbid(unsafe_code)]

pub use fml_core as core;
pub use fml_data as data;
pub use fml_dro as dro;
pub use fml_linalg as linalg;
pub use fml_models as models;
pub use fml_runtime as runtime;
pub use fml_sim as sim;

/// The most common imports for building a federated meta-learning
/// application.
pub mod prelude {
    pub use fml_core::checkpoint::Checkpoint;
    pub use fml_core::{
        adapt, FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx, FedProxConfig, LocalStepper,
        MetaGradientMode, MetaSgd, MetaSgdConfig, Reptile, ReptileConfig, RobustFedMl,
        RobustFedMlConfig, Scratch, SourceTask, TrainOutput,
    };
    pub use fml_data::{Federation, NodeData, TaskSplit};
    pub use fml_models::{
        Activation, Batch, LinearRegression, LogisticRegression, Mlp, MlpBuilder, Model, Quadratic,
        SoftmaxRegression, Target,
    };
}
