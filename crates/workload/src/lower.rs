//! Lowering: compiling a workload description into the kernel/bucket
//! profile the epoch simulator executes.
//!
//! [`lower`] is the only lowering function. It scales a parsed
//! [`WorkloadSpec`]'s batch-1 counts to the requested batch. Every zoo
//! layer kind is exactly linear in batch, so a spec exported from a
//! built model ([`WorkloadSpec::from_model`]) lowers to that model's
//! `kernel_profile` and `gradient_buckets` bit for bit.
//!
//! Degenerate inputs that previously panicked deep inside the task
//! graph (batch 0, empty models) or silently produced zero-cost
//! kernels are rejected here with typed [`LowerError`]s.

use voltascope_dnn::{GradientBucket, KernelDesc, Shape, Stage};

use crate::schema::{DepError, WorkloadSpec};

/// The layer-level dependency structure of a lowered v2 workload with
/// explicit `dep` edges. Indices are layer indices in spec order —
/// which is also the FP-kernel index order in
/// [`LoweredWorkload::kernels`] (the BP kernel for layer `i` of `n`
/// sits at kernel index `2n - 1 - i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredDag {
    /// `preds[i]`: layers whose outputs layer `i` consumes. Empty
    /// means the layer reads the external input.
    pub preds: Vec<Vec<usize>>,
    /// `succs[i]`: layers consuming layer `i`'s output (transpose of
    /// `preds`).
    pub succs: Vec<Vec<usize>>,
    /// `edge_bytes[i][j]`: activation bytes flowing over the edge
    /// `preds[i][j] -> i` at the lowered batch — the predecessor's
    /// `out_bytes` scaled by batch. Fan-in totals are per-edge sums,
    /// not the flattened `in_bytes` aggregate.
    pub edge_bytes: Vec<Vec<u64>>,
}

/// A workload compiled for one per-GPU batch size: exactly the inputs
/// `simulate_epoch_lowered` consumes when assembling its task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredWorkload {
    /// Workload display name.
    pub name: String,
    /// The per-GPU batch size the kernels below are scaled to.
    pub batch: usize,
    /// Canonical input shape at batch 1 (drives H2D mini-batch bytes).
    pub input_shape: Shape,
    /// Total parameter bytes (initial weight distribution volume).
    pub param_bytes: u64,
    /// One training iteration's kernels: FP in layer order, then BP in
    /// reverse layer order, as cuDNN issues them.
    pub kernels: Vec<KernelDesc>,
    /// Per-layer gradient buckets in backward-completion order (last
    /// layer first), before any fusion.
    pub buckets: Vec<GradientBucket>,
    /// Layer-level dependency edges, present only when the spec
    /// carries explicit v2 `dep` directives. `None` (v1 files and
    /// edge-free v2 files) means the linear chain:
    /// layer `i` follows layer `i - 1`.
    pub dag: Option<LoweredDag>,
}

/// Why a workload could not be lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The requested batch size is zero.
    ZeroBatch,
    /// The workload has no layers.
    EmptyWorkload(String),
    /// Two layers share a name (bucket readiness is keyed by name).
    DuplicateLayerName {
        /// Workload name.
        workload: String,
        /// The repeated layer name.
        layer: String,
    },
    /// A layer declares zero FLOPs and zero bytes: it would lower to a
    /// silent zero-cost kernel.
    ZeroCostLayer {
        /// Workload name.
        workload: String,
        /// The offending layer.
        layer: String,
    },
    /// No layer carries parameters, so every gradient bucket would be
    /// zero bytes and the weight-update stage degenerate.
    NoParameters(String),
    /// Scaling the layer's parser-accepted `u64` counts to the
    /// requested batch does not fit in `u64`. Surfaced as a typed
    /// error instead of a debug panic / release wrap-around.
    ArithmeticOverflow {
        /// Workload name.
        workload: String,
        /// The layer whose scaled counts overflow.
        layer: String,
    },
    /// A hand-built spec's `deps` names a layer that does not exist
    /// (parser-produced specs are validated at parse time).
    UnknownDependency {
        /// The layer whose `deps` list is broken.
        layer: String,
        /// The name that resolved to nothing.
        dep: String,
    },
    /// The dependency edges form a cycle through this layer.
    CyclicDependencies(String),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Matches the message the epoch simulator asserts on a
            // zero batch.
            LowerError::ZeroBatch => write!(f, "batch size must be positive"),
            LowerError::EmptyWorkload(w) => write!(f, "workload `{w}` has no layers"),
            LowerError::DuplicateLayerName { workload, layer } => {
                write!(f, "workload `{workload}` repeats layer name `{layer}`")
            }
            LowerError::ZeroCostLayer { workload, layer } => write!(
                f,
                "layer `{layer}` of workload `{workload}` has zero FLOPs and zero bytes"
            ),
            LowerError::NoParameters(w) => {
                write!(f, "workload `{w}` has no parameters to communicate")
            }
            LowerError::ArithmeticOverflow { workload, layer } => write!(
                f,
                "lowering layer `{layer}` of workload `{workload}` overflows u64"
            ),
            LowerError::UnknownDependency { layer, dep } => {
                write!(f, "layer `{layer}` depends on unknown layer `{dep}`")
            }
            LowerError::CyclicDependencies(layer) => {
                write!(f, "dependency cycle through layer `{layer}`")
            }
        }
    }
}

impl std::error::Error for LowerError {}

impl From<DepError> for LowerError {
    fn from(e: DepError) -> Self {
        match e {
            DepError::Unknown { layer, dep } => LowerError::UnknownDependency { layer, dep },
            DepError::Cycle(layer) => LowerError::CyclicDependencies(layer),
        }
    }
}

/// Lowers a parsed spec to the kernel/bucket profile for `batch`
/// samples per GPU.
///
/// # Example
///
/// ```
/// use voltascope_workload::{lower, WorkloadSpec};
///
/// let spec = WorkloadSpec::parse(
///     "workload v1\nname T\ninput 4\nlayer fc1 fc 0 160 320 16 40 336 1\nend\n",
/// )
/// .unwrap();
/// let lw = lower(&spec, 8).unwrap();
/// assert_eq!(lw.kernels.len(), 2); // fp.fc1, bp.fc1
/// assert_eq!(lw.kernels[0].flops, 8 * 160);
/// assert_eq!(lw.buckets[0].bytes, 336);
/// ```
pub fn lower(spec: &WorkloadSpec, batch: usize) -> Result<LoweredWorkload, LowerError> {
    if batch == 0 {
        return Err(LowerError::ZeroBatch);
    }
    if spec.layers.is_empty() {
        return Err(LowerError::EmptyWorkload(spec.name.clone()));
    }
    let mut seen = std::collections::HashSet::new();
    for l in &spec.layers {
        if !seen.insert(l.name.as_str()) {
            return Err(LowerError::DuplicateLayerName {
                workload: spec.name.clone(),
                layer: l.name.clone(),
            });
        }
        // Saturating is fine for the zero test: a sum only saturates
        // when it is enormous, never when it is zero.
        if l.fp_flops == 0 && l.in_bytes.saturating_add(l.out_bytes) == 0 {
            return Err(LowerError::ZeroCostLayer {
                workload: spec.name.clone(),
                layer: l.name.clone(),
            });
        }
    }
    let overflow = |layer: &str| LowerError::ArithmeticOverflow {
        workload: spec.name.clone(),
        layer: layer.to_string(),
    };
    let mut param_bytes = 0u64;
    for l in &spec.layers {
        param_bytes = param_bytes
            .checked_add(l.param_bytes)
            .ok_or_else(|| overflow(&l.name))?;
    }
    if param_bytes == 0 {
        return Err(LowerError::NoParameters(spec.name.clone()));
    }
    let b = batch as u64;
    // Per-layer activation traffic at the requested batch; all scaling
    // of the parser-accepted u64 fields is checked, surfacing a typed
    // error rather than a debug panic / release wrap-around.
    let act_bytes = |l: &crate::schema::LayerSpec| {
        l.in_bytes
            .checked_add(l.out_bytes)
            .and_then(|s| s.checked_mul(b))
            .ok_or_else(|| overflow(&l.name))
    };
    let mut kernels = Vec::with_capacity(spec.layers.len() * 2);
    for l in &spec.layers {
        kernels.push(KernelDesc {
            name: format!("fp.{}", l.name),
            stage: Stage::Forward,
            flops: b.checked_mul(l.fp_flops).ok_or_else(|| overflow(&l.name))?,
            bytes: act_bytes(l)?,
            tensor_cores: l.tensor_cores,
        });
    }
    for l in spec.layers.iter().rev() {
        kernels.push(KernelDesc {
            name: format!("bp.{}", l.name),
            stage: Stage::Backward,
            flops: b.checked_mul(l.bp_flops).ok_or_else(|| overflow(&l.name))?,
            bytes: act_bytes(l)?
                .checked_mul(2)
                .ok_or_else(|| overflow(&l.name))?,
            tensor_cores: l.tensor_cores,
        });
    }
    let buckets = spec
        .layers
        .iter()
        .rev()
        .filter(|l| l.param_bytes > 0)
        .map(|l| GradientBucket {
            name: l.name.clone(),
            bytes: l.param_bytes,
        })
        .collect();
    let dag = if spec.has_explicit_deps() {
        let preds = spec.resolved_deps().map_err(LowerError::from)?;
        let n = spec.layers.len();
        let mut succs = vec![Vec::new(); n];
        let mut edge_bytes = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(i);
                let src = &spec.layers[p];
                edge_bytes[i].push(
                    src.out_bytes
                        .checked_mul(b)
                        .ok_or_else(|| overflow(&src.name))?,
                );
            }
        }
        Some(LoweredDag {
            preds,
            succs,
            edge_bytes,
        })
    } else {
        None
    };
    let mut input_dims = Vec::with_capacity(spec.input_dims.len() + 1);
    input_dims.push(1);
    input_dims.extend_from_slice(&spec.input_dims);
    Ok(LoweredWorkload {
        name: spec.name.clone(),
        batch,
        input_shape: Shape::new(input_dims),
        param_bytes,
        kernels,
        buckets,
        dag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_dnn::zoo;

    fn spec(text: &str) -> WorkloadSpec {
        WorkloadSpec::parse(text).unwrap()
    }

    #[test]
    fn zero_batch_is_typed() {
        let s = spec("workload v1\nname T\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nend\n");
        assert_eq!(lower(&s, 0), Err(LowerError::ZeroBatch));
        assert_eq!(
            lower(&s, 0).unwrap_err().to_string(),
            "batch size must be positive"
        );
    }

    #[test]
    fn empty_workload_is_typed() {
        let s = spec("workload v1\nname Hollow\ninput 4\nend\n");
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::EmptyWorkload("Hollow".into()))
        );
    }

    #[test]
    fn zero_cost_layer_is_typed() {
        let s = spec(
            "workload v1\nname T\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nlayer b relu 0 0 0 0 0 0 0\nend\n",
        );
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::ZeroCostLayer {
                workload: "T".into(),
                layer: "b".into()
            })
        );
    }

    #[test]
    fn parameterless_workload_is_typed() {
        let s = spec("workload v1\nname T\ninput 4\nlayer a relu 0 16 32 16 16 0 0\nend\n");
        assert_eq!(lower(&s, 1), Err(LowerError::NoParameters("T".into())));
    }

    #[test]
    fn duplicate_names_in_hand_built_spec_are_typed() {
        // The parser already rejects duplicates; a hand-constructed
        // spec must still fail to lower rather than corrupt bucket
        // readiness (which is keyed by layer name).
        let mut s = spec("workload v1\nname T\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nend\n");
        let dup = s.layers[0].clone();
        s.layers.push(dup);
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::DuplicateLayerName {
                workload: "T".into(),
                layer: "a".into()
            })
        );
    }

    #[test]
    fn model_exports_lower_to_the_builder_profile() {
        // The identity behind the checked-in zoo files: a spec
        // exported from a built model lowers to exactly the kernels
        // and buckets the model reports, at every batch size
        // (linearity in batch is exact).
        let models = [
            zoo::lenet(),
            zoo::alexnet(),
            zoo::googlenet(),
            zoo::resnet50(),
            zoo::inception_v3(),
            zoo::vgg16(),
        ];
        for m in &models {
            let spec = WorkloadSpec::from_model(m);
            for batch in [1usize, 16, 64] {
                let lw = lower(&spec, batch).unwrap();
                assert_eq!(lw.name, m.name());
                assert_eq!(lw.kernels, m.kernel_profile(batch), "{} b{batch}", m.name());
                assert_eq!(lw.buckets, m.gradient_buckets(), "{}", m.name());
                assert_eq!(lw.param_bytes, m.param_bytes(), "{}", m.name());
                assert_eq!(&lw.input_shape, m.input_shape(), "{}", m.name());
                assert_eq!(lw.dag, None, "{}", m.name());
            }
        }
    }

    #[test]
    fn flop_scaling_overflow_is_typed_at_the_boundary() {
        // fp_flops = u64::MAX lowers fine at batch 1 and overflows at
        // batch 2 — the boundary is exact, not merely "large fails".
        let text = format!(
            "workload v1\nname Big\ninput 4\nlayer a fc 0 {} 2 4 4 8 0\nend\n",
            u64::MAX
        );
        let s = spec(&text);
        assert!(lower(&s, 1).is_ok());
        assert_eq!(
            lower(&s, 2),
            Err(LowerError::ArithmeticOverflow {
                workload: "Big".into(),
                layer: "a".into()
            })
        );
    }

    #[test]
    fn byte_scaling_overflow_is_typed() {
        // in + out = u64::MAX exactly: the FP sum fits, but the BP
        // kernel's 2x factor overflows even at batch 1. Pre-fix this
        // panicked in debug and wrapped silently in release.
        let half = u64::MAX / 2;
        let text = format!(
            "workload v1\nname Big\ninput 4\nlayer a fc 0 1 2 {} {} 8 0\nend\n",
            half + 1,
            half
        );
        let s = spec(&text);
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::ArithmeticOverflow {
                workload: "Big".into(),
                layer: "a".into()
            })
        );
    }

    #[test]
    fn param_sum_overflow_is_typed() {
        let half = u64::MAX / 2;
        let text = format!(
            "workload v1\nname Big\ninput 4\n\
             layer a fc 0 1 2 4 4 {} 0\nlayer b fc 0 1 2 4 4 {} 0\nend\n",
            half + 1,
            half + 1
        );
        let s = spec(&text);
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::ArithmeticOverflow {
                workload: "Big".into(),
                layer: "b".into()
            })
        );
    }

    const BRANCHY: &str = "workload v2\n\
                           name Branchy\n\
                           input 4\n\
                           layer stem conv 0 10 20 4 8 12 0\n\
                           layer left conv 0 10 20 8 8 12 0\n\
                           dep left stem\n\
                           layer right conv 0 10 20 8 16 12 0\n\
                           dep right stem\n\
                           layer join concat 0 1 2 24 24 0 0\n\
                           dep join left right\n\
                           layer fc fc 0 10 20 24 4 100 0\n\
                           end\n";

    #[test]
    fn explicit_deps_lower_to_a_dag() {
        let s = spec(BRANCHY);
        let lw = lower(&s, 2).unwrap();
        let dag = lw.dag.as_ref().expect("explicit deps lower to a DAG");
        assert_eq!(
            dag.preds,
            vec![vec![], vec![0], vec![0], vec![1, 2], vec![3]]
        );
        assert_eq!(
            dag.succs,
            vec![vec![1, 2], vec![3], vec![3], vec![4], vec![]]
        );
        // Per-edge fan-in bytes: each edge carries its own
        // predecessor's out_bytes scaled by batch, not the flattened
        // in_bytes sum.
        assert_eq!(
            dag.edge_bytes,
            vec![
                vec![],
                vec![2 * 8],
                vec![2 * 8],
                vec![2 * 8, 2 * 16],
                vec![2 * 24]
            ]
        );
        // Kernels themselves are unchanged by the DAG: FP in layer
        // order then BP reversed, same counts as the linear view.
        assert_eq!(lw.kernels.len(), 10);
        assert_eq!(lw.kernels[0].name, "fp.stem");
        assert_eq!(lw.kernels[5].name, "bp.fc");
    }

    #[test]
    fn edge_free_specs_lower_without_a_dag() {
        let s = spec("workload v2\nname T\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nend\n");
        assert_eq!(lower(&s, 1).unwrap().dag, None);
    }

    #[test]
    fn edge_free_v2_lowers_identically_to_v1() {
        let v1 = "workload v1\nname T\ninput 4\n\
                  layer a fc 0 1 2 4 4 8 0\nlayer b fc 0 1 2 4 4 8 0\nend\n";
        let v2 = v1.replacen("workload v1", "workload v2", 1);
        assert_eq!(
            lower(&spec(v1), 16).unwrap(),
            lower(&spec(&v2), 16).unwrap()
        );
    }

    #[test]
    fn dag_spec_overflow_is_typed_at_the_boundary() {
        // A DAG-shaped spec hits the same checked-arithmetic wall as a
        // linear one; the huge fan-in source is named in the error.
        let text = format!(
            "workload v2\nname Big\ninput 4\n\
             layer a fc 0 1 0 2 {} 8 0\nlayer b fc 0 1 2 4 4 8 0\ndep b a\nend\n",
            u64::MAX - 3
        );
        let s = spec(&text);
        assert_eq!(
            lower(&s, 2),
            Err(LowerError::ArithmeticOverflow {
                workload: "Big".into(),
                layer: "a".into()
            })
        );
    }

    #[test]
    fn hand_built_dep_breakage_is_typed() {
        let mut s = spec("workload v2\nname T\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nend\n");
        s.layers[0].deps = Some(vec!["ghost".to_string()]);
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::UnknownDependency {
                layer: "a".into(),
                dep: "ghost".into()
            })
        );
        s.layers[0].deps = Some(vec!["a".to_string()]);
        assert_eq!(
            lower(&s, 1),
            Err(LowerError::CyclicDependencies("a".into()))
        );
    }
}
