//! The `.workload` schema: a small line-oriented text format that
//! describes a training workload as data — layer names and kinds,
//! per-layer FLOP and byte counts at batch 1, parameter bytes, and
//! parallelism axes — so that new model families are files under
//! `workloads/`, not Rust modules.
//!
//! # Grammar (v1 and v2)
//!
//! ```text
//! workload v1                      # or `workload v2`
//! name <display name, rest of line>
//! input <dim> [<dim> ...]          # canonical shape without the batch dim
//! axis pipeline <stages>           # optional, default 1
//! layer <name> <kind> <stage> <fp_flops> <bp_flops> <in_bytes> <out_bytes> <param_bytes> <tc>
//! dep <name> [<pred> ...]          # v2 only: explicit dataflow edges
//! ...
//! end
//! ```
//!
//! Blank lines and `#` comments are accepted anywhere; the canonical
//! serialisation ([`WorkloadSpec::to_text`]) emits neither, so a file
//! generated from a model byte-compares stably. All per-layer numbers
//! are batch-1 values; the lowering pass scales them (every layer kind
//! in the zoo is exactly linear in batch). `<tc>` is `1` if the layer's
//! kernels run on tensor cores, else `0`.
//!
//! # Dependency edges (v2)
//!
//! A v2 file may declare each layer's dataflow predecessors with a
//! `dep` directive: `dep <layer> <pred> ...` says the named layer
//! consumes the outputs of the listed predecessor layers; an empty
//! predecessor list (`dep <layer>`) says it reads only the external
//! input. Layers *without* a `dep` line keep the v1 behaviour of
//! depending on the previous layer in file order, so a v2 file with no
//! `dep` lines at all describes exactly the same linear chain as its
//! v1 twin and lowers byte-identically. Each explicit edge carries the
//! predecessor's `out_bytes` as its fan-in volume, making the
//! otherwise-flattened `in_bytes` sum attributable per edge. `dep`
//! lines may reference layers declared later in the file; the parser
//! validates every name and rejects dependency cycles at `end`, with
//! the line/column of the offending `dep` directive.
//!
//! The parser is hand-rolled and dependency-free in the discipline of
//! the `persist` codec: it never panics, and every malformed input maps
//! to a typed [`ParseError`] carrying the 1-based line and column of
//! the offending token.

use voltascope_dnn::Model;

/// Layer kinds a `.workload` file may declare. The CNN kinds mirror
/// [`voltascope_dnn::Layer::kind`]; the transformer kinds exist only as
/// data (no Rust layer module) — the simulator consumes FLOP/byte
/// counts, not semantics.
pub const KNOWN_KINDS: [&str; 12] = [
    "conv",
    "fc",
    "relu",
    "maxpool",
    "avgpool",
    "batchnorm",
    "concat",
    "add",
    "attention",
    "mlp",
    "layernorm",
    "embed",
];

/// One layer row of a workload spec (all counts at batch 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Layer name, unique within the workload (a single token).
    pub name: String,
    /// Layer kind, one of [`KNOWN_KINDS`].
    pub kind: String,
    /// Pipeline stage this layer is placed on (`< pipeline_stages`).
    pub stage: usize,
    /// Forward FLOPs for one sample.
    pub fp_flops: u64,
    /// Backward FLOPs for one sample.
    pub bp_flops: u64,
    /// Input activation bytes for one sample (sum over fan-in).
    pub in_bytes: u64,
    /// Output activation bytes for one sample.
    pub out_bytes: u64,
    /// Parameter bytes (f32 weights; also the gradient bucket size).
    pub param_bytes: u64,
    /// Whether the layer's kernels run on tensor cores.
    pub tensor_cores: bool,
    /// Explicit dataflow predecessors (v2 `dep` directive). `None`
    /// means no `dep` line was given: the layer implicitly follows the
    /// previous layer in file order (the v1 linear chain).
    /// `Some(vec![])` means the layer reads only the external input.
    pub deps: Option<Vec<String>>,
}

/// A parsed workload description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Schema version the spec was parsed from (1 or 2). Version 2
    /// admits `dep` directives; [`WorkloadSpec::to_text`] emits the
    /// matching header.
    pub version: u32,
    /// Display name (may contain spaces, e.g. `Inception-v3`).
    pub name: String,
    /// Canonical per-sample input dims (without the batch dimension).
    pub input_dims: Vec<usize>,
    /// Number of pipeline-parallel stages (1 = no pipeline axis).
    pub pipeline_stages: usize,
    /// Layers in forward execution order.
    pub layers: Vec<LayerSpec>,
}

/// What went wrong at one spot of a `.workload` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The first line is not `workload v1` or `workload v2`.
    BadHeader,
    /// A line starts with an unrecognised directive.
    UnknownDirective(String),
    /// A `layer` row names a kind outside [`KNOWN_KINDS`].
    UnknownLayerKind(String),
    /// An `axis` directive names an axis other than `pipeline`.
    UnknownAxis(String),
    /// Two `layer` rows share a name.
    DuplicateLayer(String),
    /// A singleton directive (`name`, `input`, `axis`) appears twice.
    DuplicateDirective(&'static str),
    /// `end` was reached without a required directive.
    MissingDirective(&'static str),
    /// A directive is missing a required field.
    MissingField(&'static str),
    /// A numeric field failed to parse (or is out of its domain).
    BadNumber(String),
    /// A layer's pipeline stage is `>=` the declared stage count.
    StageOutOfRange {
        /// The out-of-range stage the layer asked for.
        stage: usize,
        /// The declared stage count it must stay below.
        stages: usize,
    },
    /// A `dep` directive names a layer that does not exist.
    UnknownLayerName(String),
    /// Two `dep` directives target the same layer.
    DuplicateDep(String),
    /// The `dep` edges form a dependency cycle through this layer.
    CyclicDependency(String),
    /// The input ended before the `end` directive.
    Truncated,
    /// Non-comment content after the `end` directive.
    TrailingInput,
}

/// A parse failure with its position: 1-based line and column of the
/// offending token (column 1 for whole-line conditions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub column: usize,
    /// What went wrong there.
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, column {}: ", self.line, self.column)?;
        match &self.kind {
            ParseErrorKind::BadHeader => {
                write!(f, "expected header `workload v1` or `workload v2`")
            }
            ParseErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            ParseErrorKind::UnknownLayerKind(k) => write!(f, "unknown layer kind `{k}`"),
            ParseErrorKind::UnknownAxis(a) => write!(f, "unknown parallelism axis `{a}`"),
            ParseErrorKind::DuplicateLayer(n) => write!(f, "duplicate layer name `{n}`"),
            ParseErrorKind::DuplicateDirective(d) => write!(f, "duplicate `{d}` directive"),
            ParseErrorKind::MissingDirective(d) => write!(f, "missing `{d}` directive"),
            ParseErrorKind::MissingField(field) => write!(f, "missing field `{field}`"),
            ParseErrorKind::BadNumber(t) => write!(f, "bad number `{t}`"),
            ParseErrorKind::StageOutOfRange { stage, stages } => write!(
                f,
                "pipeline stage {stage} out of range (workload declares {stages} stage(s))"
            ),
            ParseErrorKind::UnknownLayerName(n) => {
                write!(f, "`dep` references unknown layer `{n}`")
            }
            ParseErrorKind::DuplicateDep(n) => write!(f, "duplicate `dep` directive for `{n}`"),
            ParseErrorKind::CyclicDependency(n) => {
                write!(f, "dependency cycle through layer `{n}`")
            }
            ParseErrorKind::Truncated => write!(f, "file ends before `end` directive"),
            ParseErrorKind::TrailingInput => write!(f, "content after `end` directive"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Splits a line into `(1-based column, token)` pairs on ASCII
/// whitespace.
fn tokens(line: &str) -> Vec<(usize, &str)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        out.push((start + 1, &line[start..i]));
    }
    out
}

fn err(line: usize, column: usize, kind: ParseErrorKind) -> ParseError {
    ParseError { line, column, kind }
}

/// Marks the layers sitting on a dependency cycle, if any exists:
/// Kahn elimination over the predecessor edges and over their
/// reverses; a node surviving both prunes lies on (or inside a tangle
/// of) a cycle. Returns `None` for an acyclic graph.
fn find_cycle(preds: &[Vec<usize>]) -> Option<Vec<bool>> {
    let n = preds.len();
    let survivors = |forward: bool| -> Vec<bool> {
        let mut deg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                let (from, to) = if forward { (p, i) } else { (i, p) };
                deg[to] += 1;
                out[from].push(to);
            }
        }
        let mut alive = vec![true; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| deg[i] == 0).collect();
        while let Some(i) = stack.pop() {
            alive[i] = false;
            for &s in &out[i] {
                deg[s] -= 1;
                if deg[s] == 0 {
                    stack.push(s);
                }
            }
        }
        alive
    };
    let fwd = survivors(true);
    let bwd = survivors(false);
    let both: Vec<bool> = fwd.iter().zip(&bwd).map(|(&a, &b)| a && b).collect();
    both.iter().any(|&b| b).then_some(both)
}

/// Why a hand-constructed spec's dependency edges do not resolve (the
/// parser reports the same conditions as positioned [`ParseError`]s;
/// this form exists for specs built in Rust, which skip the parser).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepError {
    /// A layer's `deps` names a layer that does not exist.
    Unknown {
        /// The layer whose `deps` list is broken.
        layer: String,
        /// The name that resolved to nothing.
        dep: String,
    },
    /// The dependency edges form a cycle through this layer.
    Cycle(String),
}

impl std::fmt::Display for DepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepError::Unknown { layer, dep } => {
                write!(f, "layer `{layer}` depends on unknown layer `{dep}`")
            }
            DepError::Cycle(layer) => write!(f, "dependency cycle through layer `{layer}`"),
        }
    }
}

impl std::error::Error for DepError {}

fn parse_u64(line: usize, col: usize, tok: &str) -> Result<u64, ParseError> {
    tok.parse::<u64>()
        .map_err(|_| err(line, col, ParseErrorKind::BadNumber(tok.to_string())))
}

fn parse_dim(line: usize, col: usize, tok: &str) -> Result<usize, ParseError> {
    match tok.parse::<usize>() {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(err(line, col, ParseErrorKind::BadNumber(tok.to_string()))),
    }
}

impl WorkloadSpec {
    /// Parses the v1 text format. Never panics; every malformed input
    /// yields a [`ParseError`] naming the offending line and column.
    ///
    /// # Example
    ///
    /// ```
    /// use voltascope_workload::WorkloadSpec;
    ///
    /// let text = "workload v1\nname Tiny\ninput 1 8 8\naxis pipeline 1\n\
    ///             layer fc1 fc 0 1280 2560 256 40 2600 1\nend\n";
    /// let spec = WorkloadSpec::parse(text).unwrap();
    /// assert_eq!(spec.name, "Tiny");
    /// assert_eq!(spec.layers.len(), 1);
    /// assert_eq!(spec.to_text(), text.replace("            ", ""));
    /// ```
    pub fn parse(text: &str) -> Result<WorkloadSpec, ParseError> {
        let mut version = 0u32;
        let mut name: Option<String> = None;
        let mut input_dims: Option<Vec<usize>> = None;
        let mut stages: Option<usize> = None;
        // (line number, spec) per layer: stage range is validated once
        // the axis count is known, pointing back at the layer's line.
        let mut layers: Vec<(usize, LayerSpec)> = Vec::new();
        // Raw `dep` directives: (line, target col, target name,
        // [(pred col, pred name)]). Resolved after `end`, so a `dep`
        // may reference layers declared later in the file.
        type DepLine = (usize, usize, String, Vec<(usize, String)>);
        let mut dep_lines: Vec<DepLine> = Vec::new();
        let mut seen_header = false;
        let mut seen_end: Option<usize> = None;
        let mut line_count = 0;

        for (li, raw) in text.lines().enumerate() {
            let lineno = li + 1;
            line_count = lineno;
            let toks = tokens(raw);
            let Some(&(col0, directive)) = toks.first() else {
                continue; // blank line
            };
            if directive.starts_with('#') {
                continue; // comment
            }
            if let Some(end_line) = seen_end {
                let _ = end_line;
                return Err(err(lineno, col0, ParseErrorKind::TrailingInput));
            }
            if !seen_header {
                if directive == "workload" {
                    match toks.get(1).map(|&(_, t)| t) {
                        Some("v1") => version = 1,
                        Some("v2") => version = 2,
                        _ => return Err(err(lineno, col0, ParseErrorKind::BadHeader)),
                    }
                    seen_header = true;
                    continue;
                }
                return Err(err(lineno, col0, ParseErrorKind::BadHeader));
            }
            match directive {
                "name" => {
                    if name.is_some() {
                        return Err(err(
                            lineno,
                            col0,
                            ParseErrorKind::DuplicateDirective("name"),
                        ));
                    }
                    let Some(&(col1, _)) = toks.get(1) else {
                        return Err(err(lineno, col0, ParseErrorKind::MissingField("name")));
                    };
                    name = Some(raw[col1 - 1..].trim_end().to_string());
                }
                "input" => {
                    if input_dims.is_some() {
                        return Err(err(
                            lineno,
                            col0,
                            ParseErrorKind::DuplicateDirective("input"),
                        ));
                    }
                    if toks.len() < 2 {
                        return Err(err(
                            lineno,
                            col0,
                            ParseErrorKind::MissingField("input dims"),
                        ));
                    }
                    let mut dims = Vec::with_capacity(toks.len() - 1);
                    for &(col, tok) in &toks[1..] {
                        dims.push(parse_dim(lineno, col, tok)?);
                    }
                    input_dims = Some(dims);
                }
                "axis" => {
                    let Some(&(acol, axis)) = toks.get(1) else {
                        return Err(err(lineno, col0, ParseErrorKind::MissingField("axis name")));
                    };
                    if axis != "pipeline" {
                        return Err(err(
                            lineno,
                            acol,
                            ParseErrorKind::UnknownAxis(axis.to_string()),
                        ));
                    }
                    if stages.is_some() {
                        return Err(err(
                            lineno,
                            col0,
                            ParseErrorKind::DuplicateDirective("axis"),
                        ));
                    }
                    let Some(&(ncol, ntok)) = toks.get(2) else {
                        return Err(err(
                            lineno,
                            col0,
                            ParseErrorKind::MissingField("stage count"),
                        ));
                    };
                    stages = Some(parse_dim(lineno, ncol, ntok)?);
                }
                "layer" => {
                    const FIELDS: [&str; 9] = [
                        "layer name",
                        "layer kind",
                        "pipeline stage",
                        "fp_flops",
                        "bp_flops",
                        "in_bytes",
                        "out_bytes",
                        "param_bytes",
                        "tensor_cores",
                    ];
                    if toks.len() < 1 + FIELDS.len() {
                        return Err(err(
                            lineno,
                            col0,
                            ParseErrorKind::MissingField(FIELDS[toks.len() - 1]),
                        ));
                    }
                    let (ncol, lname) = toks[1];
                    let _ = ncol;
                    if layers.iter().any(|(_, l)| l.name == lname) {
                        return Err(err(
                            lineno,
                            toks[1].0,
                            ParseErrorKind::DuplicateLayer(lname.to_string()),
                        ));
                    }
                    let (kcol, kind) = toks[2];
                    if !KNOWN_KINDS.contains(&kind) {
                        return Err(err(
                            lineno,
                            kcol,
                            ParseErrorKind::UnknownLayerKind(kind.to_string()),
                        ));
                    }
                    let stage = parse_u64(lineno, toks[3].0, toks[3].1)? as usize;
                    let fp_flops = parse_u64(lineno, toks[4].0, toks[4].1)?;
                    let bp_flops = parse_u64(lineno, toks[5].0, toks[5].1)?;
                    let in_bytes = parse_u64(lineno, toks[6].0, toks[6].1)?;
                    let out_bytes = parse_u64(lineno, toks[7].0, toks[7].1)?;
                    let param_bytes = parse_u64(lineno, toks[8].0, toks[8].1)?;
                    let tensor_cores = match toks[9].1 {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(err(
                                lineno,
                                toks[9].0,
                                ParseErrorKind::BadNumber(other.to_string()),
                            ))
                        }
                    };
                    layers.push((
                        lineno,
                        LayerSpec {
                            name: lname.to_string(),
                            kind: kind.to_string(),
                            stage,
                            fp_flops,
                            bp_flops,
                            in_bytes,
                            out_bytes,
                            param_bytes,
                            tensor_cores,
                            deps: None,
                        },
                    ));
                }
                // `dep` exists only in v2; under v1 it falls through to
                // the unknown-directive arm, preserving the v1 parser's
                // rejection byte for byte.
                "dep" if version >= 2 => {
                    let Some(&(tcol, target)) = toks.get(1) else {
                        return Err(err(lineno, col0, ParseErrorKind::MissingField("dep layer")));
                    };
                    let preds = toks[2..].iter().map(|&(c, t)| (c, t.to_string())).collect();
                    dep_lines.push((lineno, tcol, target.to_string(), preds));
                }
                "end" => {
                    if name.is_none() {
                        return Err(err(lineno, col0, ParseErrorKind::MissingDirective("name")));
                    }
                    if input_dims.is_none() {
                        return Err(err(lineno, col0, ParseErrorKind::MissingDirective("input")));
                    }
                    seen_end = Some(lineno);
                }
                other => {
                    return Err(err(
                        lineno,
                        col0,
                        ParseErrorKind::UnknownDirective(other.to_string()),
                    ));
                }
            }
        }

        if seen_end.is_none() {
            return Err(err(line_count + 1, 1, ParseErrorKind::Truncated));
        }
        let pipeline_stages = stages.unwrap_or(1);
        for (lineno, l) in &layers {
            if l.stage >= pipeline_stages {
                return Err(err(
                    *lineno,
                    1,
                    ParseErrorKind::StageOutOfRange {
                        stage: l.stage,
                        stages: pipeline_stages,
                    },
                ));
            }
        }

        // ---- Resolve `dep` directives (v2). ----
        let index: std::collections::BTreeMap<String, usize> = layers
            .iter()
            .enumerate()
            .map(|(i, (_, l))| (l.name.clone(), i))
            .collect();
        for (lineno, tcol, target, preds) in &dep_lines {
            let Some(&ti) = index.get(target.as_str()) else {
                return Err(err(
                    *lineno,
                    *tcol,
                    ParseErrorKind::UnknownLayerName(target.clone()),
                ));
            };
            if layers[ti].1.deps.is_some() {
                return Err(err(
                    *lineno,
                    *tcol,
                    ParseErrorKind::DuplicateDep(target.clone()),
                ));
            }
            let mut names = Vec::with_capacity(preds.len());
            for (pcol, pred) in preds {
                if !index.contains_key(pred.as_str()) {
                    return Err(err(
                        *lineno,
                        *pcol,
                        ParseErrorKind::UnknownLayerName(pred.clone()),
                    ));
                }
                // Repeated mentions of the same predecessor collapse
                // to one edge.
                if !names.contains(pred) {
                    names.push(pred.clone());
                }
            }
            layers[ti].1.deps = Some(names);
        }
        if !dep_lines.is_empty() {
            // Cycle check over the effective graph (explicit edges plus
            // the linear default for un-`dep`ed layers; defaults always
            // point backwards, so any cycle crosses an explicit edge).
            let preds: Vec<Vec<usize>> = layers
                .iter()
                .enumerate()
                .map(|(i, (_, l))| match &l.deps {
                    Some(names) => names.iter().map(|n| index[n.as_str()]).collect(),
                    None if i > 0 => vec![i - 1],
                    None => Vec::new(),
                })
                .collect();
            if let Some(in_cycle) = find_cycle(&preds) {
                // Point at the first `dep` directive targeting a layer
                // on the cycle (one always exists: defaults cannot form
                // cycles on their own).
                let (lineno, tcol, target) = dep_lines
                    .iter()
                    .filter_map(|(lineno, tcol, target, _)| {
                        let ti = index[target.as_str()];
                        in_cycle[ti].then_some((*lineno, *tcol, target.clone()))
                    })
                    .next()
                    .unwrap_or_else(|| {
                        let (lineno, tcol, target, _) = &dep_lines[0];
                        (*lineno, *tcol, target.clone())
                    });
                return Err(err(lineno, tcol, ParseErrorKind::CyclicDependency(target)));
            }
        }

        Ok(WorkloadSpec {
            version,
            name: name.expect("checked at end"),
            input_dims: input_dims.expect("checked at end"),
            pipeline_stages,
            layers: layers.into_iter().map(|(_, l)| l).collect(),
        })
    }

    /// Serialises to the canonical text: no comments, no blank lines,
    /// one space between fields, the `axis pipeline` line always
    /// present, each layer's `dep` line (if any) directly after its
    /// `layer` row. `parse(to_text(s)) == s` for every valid spec. A
    /// spec carrying explicit deps always serialises with the v2
    /// header (deps are not expressible in v1).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let v2 = self.version >= 2 || self.layers.iter().any(|l| l.deps.is_some());
        let mut out = String::new();
        out.push_str(if v2 { "workload v2\n" } else { "workload v1\n" });
        writeln!(out, "name {}", self.name).unwrap();
        out.push_str("input");
        for d in &self.input_dims {
            write!(out, " {d}").unwrap();
        }
        out.push('\n');
        writeln!(out, "axis pipeline {}", self.pipeline_stages).unwrap();
        for l in &self.layers {
            writeln!(
                out,
                "layer {} {} {} {} {} {} {} {} {}",
                l.name,
                l.kind,
                l.stage,
                l.fp_flops,
                l.bp_flops,
                l.in_bytes,
                l.out_bytes,
                l.param_bytes,
                u8::from(l.tensor_cores),
            )
            .unwrap();
            if let Some(deps) = &l.deps {
                write!(out, "dep {}", l.name).unwrap();
                for d in deps {
                    write!(out, " {d}").unwrap();
                }
                out.push('\n');
            }
        }
        out.push_str("end\n");
        out
    }

    /// Extracts the declarative spec of a built [`Model`]: batch-1
    /// FLOP/byte counts per layer, no pipeline axis. This is how the
    /// checked-in zoo `.workload` files are generated, and the anchor
    /// of the builder-vs-data byte-identity tests.
    pub fn from_model(model: &Model) -> WorkloadSpec {
        let layers = model
            .layer_info()
            .into_iter()
            .map(|li| LayerSpec {
                name: li.name,
                kind: li.kind.to_string(),
                stage: 0,
                fp_flops: li.fp_flops,
                bp_flops: li.bp_flops,
                in_bytes: li.in_bytes,
                out_bytes: li.out_bytes,
                param_bytes: li.param_bytes,
                tensor_cores: li.tensor_cores,
                deps: None,
            })
            .collect();
        WorkloadSpec {
            version: 1,
            name: model.name().to_string(),
            input_dims: model.input_shape().dims()[1..].to_vec(),
            pipeline_stages: 1,
            layers,
        }
    }

    /// Like [`WorkloadSpec::from_model`], but carries the model's real
    /// graph edges as explicit v2 `dep` directives instead of
    /// flattening to the linear chain: every layer gets a `deps` list
    /// naming its node-inputs (external `Input` sources omitted, so a
    /// sourceless layer reads the external input). Lowering such a
    /// spec schedules independent branches concurrently.
    pub fn from_model_dag(model: &Model) -> WorkloadSpec {
        let mut spec = Self::from_model(model);
        spec.version = 2;
        for (l, deps) in spec.layers.iter_mut().zip(model.layer_deps()) {
            l.deps = Some(deps);
        }
        spec
    }

    /// True if any layer carries an explicit v2 `deps` list; edge-free
    /// specs (all `None`) lower to the v1 linear chain.
    pub fn has_explicit_deps(&self) -> bool {
        self.layers.iter().any(|l| l.deps.is_some())
    }

    /// Resolves each layer's effective predecessors to layer indices:
    /// explicit `deps` where given, the previous layer in file order
    /// otherwise (the v1 linear default; layer 0 defaults to no
    /// predecessors). Parser-produced specs never fail here — both
    /// error cases are rejected at parse time — but hand-built specs
    /// can, so the check is repeated rather than assumed.
    pub fn resolved_deps(&self) -> Result<Vec<Vec<usize>>, DepError> {
        let index: std::collections::BTreeMap<&str, usize> = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| (l.name.as_str(), i))
            .collect();
        let mut preds = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            preds.push(match &l.deps {
                Some(names) => {
                    let mut ps = Vec::with_capacity(names.len());
                    for n in names {
                        let Some(&p) = index.get(n.as_str()) else {
                            return Err(DepError::Unknown {
                                layer: l.name.clone(),
                                dep: n.clone(),
                            });
                        };
                        if !ps.contains(&p) {
                            ps.push(p);
                        }
                    }
                    ps
                }
                None if i > 0 => vec![i - 1],
                None => Vec::new(),
            });
        }
        if let Some(in_cycle) = find_cycle(&preds) {
            let li = in_cycle.iter().position(|&b| b).expect("non-empty cycle");
            return Err(DepError::Cycle(self.layers[li].name.clone()));
        }
        Ok(preds)
    }

    /// Total parameter bytes across all layers, saturating at
    /// `u64::MAX` (files are untrusted; a saturated footprint fits no
    /// device).
    pub fn param_bytes(&self) -> u64 {
        self.layers
            .iter()
            .fold(0, |acc, l| acc.saturating_add(l.param_bytes))
    }

    /// Bytes of every layer's output activation at `batch` samples,
    /// saturating like [`WorkloadSpec::param_bytes`]: the footprint the
    /// memory model of Table IV sizes.
    pub fn activation_bytes(&self, batch: usize) -> u64 {
        self.layers
            .iter()
            .fold(0u64, |acc, l| acc.saturating_add(l.out_bytes))
            .saturating_mul(batch as u64)
    }

    /// The layers placed on pipeline stage `s`, in forward order.
    pub fn stage_layers(&self, s: usize) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(move |l| l.stage == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "workload v1\n\
                        name Tiny Net\n\
                        input 3 8 8\n\
                        axis pipeline 2\n\
                        layer conv1 conv 0 1000 2000 768 1024 432 1\n\
                        layer fc1 fc 1 500 1000 1024 40 41000 1\n\
                        end\n";

    #[test]
    fn parses_and_round_trips() {
        let spec = WorkloadSpec::parse(TINY).unwrap();
        assert_eq!(spec.name, "Tiny Net");
        assert_eq!(spec.input_dims, vec![3, 8, 8]);
        assert_eq!(spec.pipeline_stages, 2);
        assert_eq!(spec.layers.len(), 2);
        assert_eq!(spec.layers[1].stage, 1);
        assert!(spec.layers[0].tensor_cores);
        let text = spec.to_text();
        assert_eq!(WorkloadSpec::parse(&text).unwrap(), spec);
        assert_eq!(text, TINY);
    }

    #[test]
    fn accepts_comments_and_blank_lines() {
        let noisy = "# generated\n\nworkload v1\nname N\n# dims\ninput 4\n\n\
                     layer a fc 0 1 2 4 4 8 0\nend\n\n# tail comment\n";
        let spec = WorkloadSpec::parse(noisy).unwrap();
        assert_eq!(spec.name, "N");
        assert_eq!(spec.pipeline_stages, 1);
    }

    #[test]
    fn header_must_come_first() {
        let e = WorkloadSpec::parse("name X\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.kind, ParseErrorKind::BadHeader);
    }

    #[test]
    fn truncated_file_is_typed() {
        let e = WorkloadSpec::parse("workload v1\nname X\ninput 4\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Truncated);
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn unknown_layer_kind_names_the_line() {
        let bad = "workload v1\nname X\ninput 4\nlayer a warp 0 1 2 4 4 8 0\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.kind, ParseErrorKind::UnknownLayerKind("warp".into()));
        assert_eq!(e.column, 9);
    }

    #[test]
    fn duplicate_layer_name_is_rejected() {
        let bad =
            "workload v1\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nlayer a fc 0 1 2 4 4 8 0\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(e.kind, ParseErrorKind::DuplicateLayer("a".into()));
    }

    #[test]
    fn stage_out_of_range_points_at_the_layer() {
        let bad = "workload v1\nname X\ninput 4\naxis pipeline 2\nlayer a fc 2 1 2 4 4 8 0\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(
            e.kind,
            ParseErrorKind::StageOutOfRange {
                stage: 2,
                stages: 2
            }
        );
        // Without an axis directive the default single stage applies.
        let bad1 = "workload v1\nname X\ninput 4\nlayer a fc 1 1 2 4 4 8 0\nend\n";
        let e1 = WorkloadSpec::parse(bad1).unwrap_err();
        assert_eq!(
            e1.kind,
            ParseErrorKind::StageOutOfRange {
                stage: 1,
                stages: 1
            }
        );
    }

    #[test]
    fn bad_numbers_and_missing_fields() {
        let bad = "workload v1\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::MissingField("tensor_cores"));
        let bad2 = "workload v1\nname X\ninput 4\nlayer a fc 0 one 2 4 4 8 0\nend\n";
        let e2 = WorkloadSpec::parse(bad2).unwrap_err();
        assert_eq!(e2.kind, ParseErrorKind::BadNumber("one".into()));
        let bad3 = "workload v1\nname X\ninput 0\nend\n";
        let e3 = WorkloadSpec::parse(bad3).unwrap_err();
        assert_eq!(e3.kind, ParseErrorKind::BadNumber("0".into()));
    }

    #[test]
    fn unknown_directive_and_axis() {
        let e = WorkloadSpec::parse("workload v1\nshape 4\nend\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownDirective("shape".into()));
        let e2 = WorkloadSpec::parse("workload v1\naxis tensor 4\nend\n").unwrap_err();
        assert_eq!(e2.kind, ParseErrorKind::UnknownAxis("tensor".into()));
    }

    #[test]
    fn end_requires_name_and_input() {
        let e = WorkloadSpec::parse("workload v1\ninput 4\nend\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::MissingDirective("name"));
        let e2 = WorkloadSpec::parse("workload v1\nname X\nend\n").unwrap_err();
        assert_eq!(e2.kind, ParseErrorKind::MissingDirective("input"));
    }

    #[test]
    fn trailing_content_is_rejected() {
        let e = WorkloadSpec::parse("workload v1\nname X\ninput 4\nend\nname Y\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(e.kind, ParseErrorKind::TrailingInput);
    }

    #[test]
    fn duplicate_directives_are_rejected() {
        let e = WorkloadSpec::parse("workload v1\nname X\nname Y\nend\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::DuplicateDirective("name"));
    }

    const BRANCHY: &str = "workload v2\n\
                           name Branchy\n\
                           input 4\n\
                           axis pipeline 1\n\
                           layer stem conv 0 10 20 4 8 12 0\n\
                           layer left conv 0 10 20 8 8 12 0\n\
                           dep left stem\n\
                           layer right conv 0 10 20 8 8 12 0\n\
                           dep right stem\n\
                           layer join concat 0 1 2 16 16 0 0\n\
                           dep join left right\n\
                           end\n";

    #[test]
    fn v2_deps_parse_and_round_trip() {
        let spec = WorkloadSpec::parse(BRANCHY).unwrap();
        assert_eq!(spec.version, 2);
        assert!(spec.has_explicit_deps());
        assert_eq!(spec.layers[0].deps, None);
        assert_eq!(spec.layers[1].deps, Some(vec!["stem".to_string()]));
        assert_eq!(
            spec.layers[3].deps,
            Some(vec!["left".to_string(), "right".to_string()])
        );
        let text = spec.to_text();
        assert_eq!(text, BRANCHY);
        assert_eq!(WorkloadSpec::parse(&text).unwrap(), spec);
        // stem defaults linear (no preds: it is layer 0); join fans in.
        let preds = spec.resolved_deps().unwrap();
        assert_eq!(preds, vec![vec![], vec![0], vec![0], vec![1, 2]]);
    }

    #[test]
    fn edge_free_v2_matches_v1_apart_from_version() {
        let v2 = TINY.replacen("workload v1", "workload v2", 1);
        let s1 = WorkloadSpec::parse(TINY).unwrap();
        let s2 = WorkloadSpec::parse(&v2).unwrap();
        assert_eq!(s2.version, 2);
        assert!(!s2.has_explicit_deps());
        assert_eq!(s2.layers, s1.layers);
        assert_eq!(s1.resolved_deps().unwrap(), s2.resolved_deps().unwrap());
        // The header survives the round trip even without edges.
        assert_eq!(s2.to_text(), v2);
    }

    #[test]
    fn dep_is_unknown_under_v1() {
        let bad = "workload v1\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8 0\ndep a\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(e.kind, ParseErrorKind::UnknownDirective("dep".into()));
    }

    #[test]
    fn dep_forward_references_are_allowed() {
        let fwd = "workload v2\nname X\ninput 4\n\
                   dep a b\nlayer a fc 0 1 2 4 4 8 0\nlayer b fc 0 1 2 4 4 8 0\ndep b\nend\n";
        let spec = WorkloadSpec::parse(fwd).unwrap();
        assert_eq!(spec.layers[0].deps, Some(vec!["b".to_string()]));
        assert_eq!(spec.layers[1].deps, Some(vec![]));
        assert_eq!(spec.resolved_deps().unwrap(), vec![vec![1], vec![]]);
    }

    #[test]
    fn dep_unknown_names_carry_line_and_column() {
        let bad = "workload v2\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8 0\ndep ghost a\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(e.column, 5);
        assert_eq!(e.kind, ParseErrorKind::UnknownLayerName("ghost".into()));

        let bad2 = "workload v2\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8 0\ndep a ghost\nend\n";
        let e2 = WorkloadSpec::parse(bad2).unwrap_err();
        assert_eq!(e2.line, 5);
        assert_eq!(e2.column, 7);
        assert_eq!(e2.kind, ParseErrorKind::UnknownLayerName("ghost".into()));
    }

    #[test]
    fn duplicate_dep_and_missing_target_are_rejected() {
        let bad = "workload v2\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8 0\ndep a\ndep a\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.kind, ParseErrorKind::DuplicateDep("a".into()));

        let bad2 = "workload v2\nname X\ninput 4\ndep\nend\n";
        let e2 = WorkloadSpec::parse(bad2).unwrap_err();
        assert_eq!(e2.kind, ParseErrorKind::MissingField("dep layer"));
    }

    #[test]
    fn dependency_cycles_are_rejected_with_position() {
        let bad = "workload v2\nname X\ninput 4\n\
                   layer a fc 0 1 2 4 4 8 0\nlayer b fc 0 1 2 4 4 8 0\n\
                   dep a b\ndep b a\nend\n";
        let e = WorkloadSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.column, 5);
        assert_eq!(e.kind, ParseErrorKind::CyclicDependency("a".into()));
        // A self-loop is the smallest cycle.
        let selfy = "workload v2\nname X\ninput 4\nlayer a fc 0 1 2 4 4 8 0\ndep a a\nend\n";
        let e2 = WorkloadSpec::parse(selfy).unwrap_err();
        assert_eq!(e2.kind, ParseErrorKind::CyclicDependency("a".into()));
        // Cycles through the implicit linear default are caught too:
        // b defaults to following a, and a explicitly depends on b.
        let implicit = "workload v2\nname X\ninput 4\n\
                        layer a fc 0 1 2 4 4 8 0\nlayer b fc 0 1 2 4 4 8 0\ndep a b\nend\n";
        let e3 = WorkloadSpec::parse(implicit).unwrap_err();
        assert_eq!(e3.line, 6);
        assert_eq!(e3.kind, ParseErrorKind::CyclicDependency("a".into()));
    }

    #[test]
    fn repeated_pred_mentions_collapse() {
        let noisy = "workload v2\nname X\ninput 4\n\
                     layer a fc 0 1 2 4 4 8 0\nlayer b fc 0 1 2 4 4 8 0\ndep b a a a\nend\n";
        let spec = WorkloadSpec::parse(noisy).unwrap();
        assert_eq!(spec.layers[1].deps, Some(vec!["a".to_string()]));
    }

    #[test]
    fn resolved_deps_rejects_hand_built_breakage() {
        let mut spec = WorkloadSpec::parse(TINY).unwrap();
        spec.layers[0].deps = Some(vec!["ghost".to_string()]);
        assert_eq!(
            spec.resolved_deps(),
            Err(DepError::Unknown {
                layer: "conv1".into(),
                dep: "ghost".into()
            })
        );
        spec.layers[0].deps = Some(vec!["fc1".to_string()]);
        // fc1 defaults to following conv1: a two-node cycle.
        assert!(matches!(spec.resolved_deps(), Err(DepError::Cycle(_))));
    }

    #[test]
    fn from_model_dag_exports_real_edges() {
        use voltascope_dnn::{Add, Conv2d, ModelBuilder, Relu, Shape, Source};
        // x -> conv -> relu -> add(relu, conv): a residual join.
        let mut b = ModelBuilder::new("res", Shape::new([1, 1, 3, 3]));
        let c = b.add("conv", Conv2d::new(1, 1, 1, 1, 0), &[Source::Input]);
        let r = b.add("relu", Relu, &[Source::Node(c)]);
        let a = b.add("add", Add, &[Source::Node(r), Source::Node(c)]);
        let model = b.finish(a);

        let dag = WorkloadSpec::from_model_dag(&model);
        assert_eq!(dag.version, 2);
        assert_eq!(dag.layers[0].deps, Some(vec![]));
        assert_eq!(dag.layers[1].deps, Some(vec!["conv".to_string()]));
        assert_eq!(
            dag.layers[2].deps,
            Some(vec!["relu".to_string(), "conv".to_string()])
        );
        assert_eq!(
            dag.resolved_deps().unwrap(),
            vec![vec![], vec![0], vec![1, 0]]
        );
        // The linear flattening is unchanged by the DAG variant.
        let linear = WorkloadSpec::from_model(&model);
        assert_eq!(linear.version, 1);
        for (d, l) in dag.layers.iter().zip(&linear.layers) {
            let mut d = d.clone();
            d.deps = None;
            assert_eq!(&d, l);
        }
        // And the DAG spec round-trips through text.
        assert_eq!(WorkloadSpec::parse(&dag.to_text()).unwrap(), dag);
    }
}
