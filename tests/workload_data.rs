//! "Workloads as data" integration suite: the checked-in `.workload`
//! files must stay byte-identical to their Rust builders (every zoo
//! cell times from them), the text format must round-trip exactly,
//! every malformed input must come back as a typed error naming the
//! offending line, and no mutation of a checked-in file may panic the
//! parser or the lowering pass.

use dgx1_repro::prelude::*;
use proptest::prelude::*;
use voltascope::workloads;
use voltascope_workload::{LayerSpec, ParseErrorKind, WorkloadSpec, KNOWN_KINDS};

/// The zoo roster with the stable file stems `export_workloads` uses.
fn zoo_exports() -> Vec<(&'static str, Model)> {
    vec![
        ("lenet", zoo::lenet()),
        ("alexnet", zoo::alexnet()),
        ("googlenet", zoo::googlenet()),
        ("resnet", zoo::resnet50()),
        ("inception_v3", zoo::inception_v3()),
        ("vgg16", zoo::vgg16()),
    ]
}

#[test]
fn zoo_workload_files_match_builder_exports_byte_for_byte() {
    let dir = workloads::workload_dir();
    for (stem, model) in zoo_exports() {
        let path = dir.join(format!("{stem}.workload"));
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; run export_workloads", path.display()));
        let spec = WorkloadSpec::from_model(&model);
        assert_eq!(on_disk, spec.to_text(), "{stem}.workload drifted");
        assert_eq!(WorkloadSpec::parse(&on_disk).unwrap(), spec, "{stem}");
    }
}

#[test]
fn registered_specs_size_memory_exactly_like_their_builders() {
    // The memory model of Table IV reads the registered spec: its
    // saturating sums must equal the builder's accounting, so moving
    // memory off `Model` cannot move a byte of any golden.
    for (_, model) in zoo_exports() {
        let sel = WorkloadSel::from_name(model.name())
            .unwrap_or_else(|| panic!("{} is not registered", model.name()));
        let spec = sel.definition();
        let spec = spec.spec();
        assert_eq!(spec.param_bytes(), model.param_bytes(), "{}", model.name());
        for batch in [16usize, 32, 64, 128, 256, 512, 1024] {
            assert_eq!(
                spec.activation_bytes(batch),
                model.activation_bytes(batch),
                "{} b{batch}",
                model.name()
            );
        }
    }
}

/// A generator over valid specs: arbitrary dims, stage axis, and layer
/// rows (names synthesised by index, so uniqueness holds; stages
/// reduced modulo the axis, so they are always in range).
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    let layer = (
        (0usize..KNOWN_KINDS.len(), 0usize..8, proptest::bool::ANY),
        (1u64..1_000_000_000, 1u64..1_000_000_000),
        (0u64..100_000_000, 0u64..100_000_000, 0u64..1_000_000_000),
    );
    (
        0u64..1_000_000,
        1usize..7,
        proptest::collection::vec(1usize..257, 1..5),
        proptest::collection::vec(layer, 1..13),
    )
        .prop_map(|(name_seed, stages, input_dims, rows)| WorkloadSpec {
            version: 1,
            name: format!("Gen-{name_seed}"),
            input_dims,
            pipeline_stages: stages,
            layers: rows
                .into_iter()
                .enumerate()
                .map(
                    |(i, ((kind, stage, tc), (fp, bp), (inb, outb, pb)))| LayerSpec {
                        name: format!("l{i}"),
                        kind: KNOWN_KINDS[kind].to_string(),
                        stage: stage % stages,
                        fp_flops: fp,
                        bp_flops: bp,
                        in_bytes: inb,
                        out_bytes: outb,
                        param_bytes: pb,
                        tensor_cores: tc,
                        deps: None,
                    },
                )
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_reserialize_parse_round_trips_exactly(spec in arb_spec()) {
        let text = spec.to_text();
        let parsed = match WorkloadSpec::parse(&text) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("canonical text rejected: {e}"))),
        };
        prop_assert_eq!(&parsed, &spec);
        // Canonical text is a fixed point of parse → to_text.
        prop_assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn comments_and_blank_lines_do_not_change_the_parse(spec in arb_spec()) {
        let canonical = spec.to_text();
        let mut noisy = String::from("# leading comment\n\n");
        for line in canonical.lines() {
            noisy.push_str(line);
            noisy.push_str("\n# interleaved comment\n\n");
        }
        let parsed = match WorkloadSpec::parse(&noisy) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("noisy text rejected: {e}"))),
        };
        prop_assert_eq!(parsed, spec);
    }
}

#[test]
fn parser_errors_name_the_offending_line() {
    // Truncated file: `end` never arrives.
    let e = WorkloadSpec::parse("workload v1\nname T\ninput 4\n").unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::Truncated);
    assert_eq!(e.line, 4);

    // Unknown layer kind, pointing at the kind token's column.
    let e =
        WorkloadSpec::parse("workload v1\nname T\ninput 4\nlayer a softmax 0 1 1 1 1 4 0\nend\n")
            .unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::UnknownLayerKind("softmax".into()));
    assert_eq!((e.line, e.column), (4, 9));

    // Duplicate layer name, pointing at the second declaration.
    let e = WorkloadSpec::parse(
        "workload v1\nname T\ninput 4\nlayer a fc 0 1 1 1 1 4 0\nlayer a fc 0 1 1 1 1 4 0\nend\n",
    )
    .unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::DuplicateLayer("a".into()));
    assert_eq!(e.line, 5);

    // Pipeline stage beyond the declared axis.
    let e = WorkloadSpec::parse(
        "workload v1\nname T\ninput 4\naxis pipeline 2\nlayer a fc 5 1 1 1 1 4 0\nend\n",
    )
    .unwrap_err();
    assert_eq!(
        e.kind,
        ParseErrorKind::StageOutOfRange {
            stage: 5,
            stages: 2
        }
    );
    assert_eq!(e.line, 5);

    // Every error Display names its line for the CI log.
    assert!(e.to_string().starts_with("line 5, "));
}

/// Every checked-in `.workload` file, `dag/` exports included, as raw
/// bytes: the seed corpus of the mutation fuzzer.
fn corpus() -> Vec<Vec<u8>> {
    let dir = workloads::workload_dir();
    let mut files = Vec::new();
    for d in [dir.clone(), dir.join("dag")] {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "workload") {
                files.push(std::fs::read(&path).unwrap());
            }
        }
    }
    assert!(
        files.len() >= 9,
        "expected the zoo, transformer and dag files"
    );
    files
}

/// Applies one mutation, positions reduced modulo the lengths so every
/// draw is valid: `op` 0 flips a byte; 1 truncates, re-closing the file
/// with `end` when `pos2` is odd; 2 splices on a suffix of `other`; 3
/// rewrites a number to `0`, `u64::MAX` or its own digits twice over,
/// reaching the zero-cost and overflow checks.
fn mutate(bytes: &mut Vec<u8>, other: &[u8], (op, pos, pos2): (u8, usize, usize)) {
    if bytes.is_empty() {
        return;
    }
    let at = pos % bytes.len();
    match op {
        0 => bytes[at] ^= 1 + (pos2 % 255) as u8,
        1 => {
            bytes.truncate(at);
            if pos2 % 2 == 1 {
                bytes.extend_from_slice(b"\nend\n");
            }
        }
        2 => {
            bytes.truncate(at);
            bytes.extend_from_slice(&other[pos2 % other.len()..]);
        }
        _ => {
            let starts: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || bytes[i - 1] == b' '))
                .collect();
            let Some(&start) = starts.get(pos % starts.len().max(1)) else {
                return;
            };
            let end = (start..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let with = match pos2 % 3 {
                0 => b"0".to_vec(),
                1 => u64::MAX.to_string().into_bytes(),
                _ => bytes[start..end].repeat(2),
            };
            bytes.splice(start..end, with);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Checked-in files put through one to three flips, truncations,
    /// splices and renumberings either fail to parse with a typed
    /// error or parse to a spec whose lowering at batch 1, 16 and 64
    /// returns a workload or a typed error — never a panic.
    #[test]
    fn mutated_workload_files_never_panic_the_parser_or_lowering(
        file in 0usize..64,
        other in 0usize..64,
        edits in proptest::collection::vec((0u8..4, 0usize..1_000_000, 0usize..1_000_000), 1..4),
    ) {
        thread_local!(static CORPUS: Vec<Vec<u8>> = corpus());
        let bytes = CORPUS.with(|c| {
            let mut bytes = c[file % c.len()].clone();
            for &edit in &edits {
                mutate(&mut bytes, &c[other % c.len()], edit);
            }
            bytes
        });
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(spec) = WorkloadSpec::parse(&text) {
            for batch in [1usize, 16, 64] {
                if let Ok(lw) = lower(&spec, batch) {
                    prop_assert_eq!(lw.kernels.len(), 2 * spec.layers.len());
                }
            }
        }
    }
}
