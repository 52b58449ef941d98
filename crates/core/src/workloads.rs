//! Workload selection and the workload registry.
//!
//! The grid machinery keys cells by [`WorkloadSel`]: either one of the
//! paper's zoo networks ([`Workload`]) or a [`DataWorkload`] — a
//! `.workload` spec discovered on disk, indexed into a process-wide
//! registry so the selector stays a small `Copy` key.
//!
//! Both kinds time from the registry. A zoo selector resolves to the
//! registered spec carrying its name, the checked-in file that
//! `export_workloads` generated from the Rust builder (its `--check`
//! mode is the gate that keeps file and builder equal). The memory
//! experiments read the same registered specs. The builders remain for
//! regenerating the files, the Table I census and the real numerics.
//!
//! # Registry
//!
//! The registry loads lazily from `$VOLTASCOPE_WORKLOAD_DIR`, falling
//! back to the repository's `workloads/` directory. Files are taken in
//! filename order (sorted), so [`DataWorkload`] indices — and the
//! jitter salts derived from them — are stable for a fixed directory
//! content. A missing directory yields an empty registry. A file that
//! cannot be read or parsed, or that repeats an earlier file's `name`,
//! is reported once on stderr and left out; the rest still load.
//! Resolving a zoo workload whose file is missing or broken panics
//! with the stored error. The registry also keeps a digest of every
//! registered file's bytes, which snapshot fingerprints fold in so an
//! edited file invalidates cached reports.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use voltascope_dnn::zoo::Workload;
use voltascope_workload::{Definition, ParseError, WorkloadSpec};

use crate::service::persist::{fnv1a_extend, FNV_OFFSET};

/// Environment variable overriding the `.workload` search directory.
pub const WORKLOAD_DIR_ENV: &str = "VOLTASCOPE_WORKLOAD_DIR";

/// A workload from the on-disk registry, identified by its stable
/// index (filename-sorted position in the workload directory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataWorkload(u16);

impl DataWorkload {
    /// Registry index (filename-sorted, stable per directory content).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The workload's display name (the spec's `name` directive).
    pub fn name(self) -> &'static str {
        registry().entries[self.index()].name()
    }

    /// The parsed spec.
    pub fn spec(self) -> &'static WorkloadSpec {
        registry().entries[self.index()].spec()
    }
}

impl std::fmt::Display for DataWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Selects a workload for a grid cell: a paper zoo network or another
/// registered `.workload` spec. Small `Copy` key, `Eq + Hash`, like
/// every other cell axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadSel {
    /// One of the five paper workloads, timed from its exported file.
    Zoo(Workload),
    /// A registered data workload.
    Data(DataWorkload),
}

impl WorkloadSel {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadSel::Zoo(w) => w.name(),
            WorkloadSel::Data(d) => d.name(),
        }
    }

    /// The workload tag salted into the jitter stream. Zoo tags are
    /// the **frozen** enum discriminants (0..=4, golden-locked); data
    /// workloads occupy a disjoint range starting at `0x20`.
    pub fn salt_tag(self) -> u64 {
        match self {
            WorkloadSel::Zoo(w) => w as u64,
            WorkloadSel::Data(d) => 0x20 + d.0 as u64,
        }
    }

    /// Resolves a selector from a name: zoo names/aliases first, then
    /// registered data workloads (exact spec name).
    pub fn from_name(name: &str) -> Option<WorkloadSel> {
        if let Some(w) = Workload::from_name(name) {
            return Some(WorkloadSel::Zoo(w));
        }
        find_data(name).map(WorkloadSel::Data)
    }

    /// Resolves the selector to its registered [`Definition`]: zoo
    /// selectors by [`Workload::name`], data selectors by index.
    ///
    /// # Panics
    ///
    /// Panics when a zoo workload's file is missing from the registry
    /// or failed to load, naming the load error and the fix.
    pub fn definition(self) -> Definition {
        self.resolve().clone()
    }

    /// [`WorkloadSel::definition`] without the `Arc` clone.
    pub(crate) fn resolve(self) -> &'static Definition {
        match self {
            WorkloadSel::Zoo(w) => registry().zoo(w),
            WorkloadSel::Data(d) => &registry().entries[d.index()],
        }
    }
}

impl From<Workload> for WorkloadSel {
    fn from(w: Workload) -> Self {
        WorkloadSel::Zoo(w)
    }
}

impl From<DataWorkload> for WorkloadSel {
    fn from(d: DataWorkload) -> Self {
        WorkloadSel::Data(d)
    }
}

impl PartialEq<Workload> for WorkloadSel {
    fn eq(&self, other: &Workload) -> bool {
        matches!(self, WorkloadSel::Zoo(w) if w == other)
    }
}

impl std::fmt::Display for WorkloadSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A `.workload` file the registry could not take.
#[derive(Debug)]
pub enum LoadError {
    /// The file or directory could not be read, or the file is not
    /// UTF-8 (reported as [`std::io::ErrorKind::InvalidData`]).
    Io {
        /// The file, or the directory when listing it failed.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The file's text does not parse.
    Parse {
        /// The file.
        path: PathBuf,
        /// The parser's typed error, with line and column.
        error: ParseError,
    },
    /// The file's `name` is already taken by a file loaded before it.
    /// Lookups resolve a name to one file, so a second file under the
    /// same name would alias the first one's cells.
    DuplicateName {
        /// The later file, which is left out.
        path: PathBuf,
        /// The repeated `name` directive.
        name: String,
        /// The earlier file that keeps the name.
        first: PathBuf,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            LoadError::Parse { path, error } => write!(f, "{}: {error}", path.display()),
            LoadError::DuplicateName { path, name, first } => write!(
                f,
                "{}: workload name `{name}` is already taken by {}",
                path.display(),
                first.display()
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// What [`load_dir`] found in a workload directory.
#[derive(Debug, Default)]
pub struct LoadedDir {
    /// The specs that loaded, filename-sorted, with their files.
    pub specs: Vec<(PathBuf, WorkloadSpec)>,
    /// The files that did not load, filename-sorted.
    pub errors: Vec<LoadError>,
    /// FNV-1a digest over the file name and bytes of every loaded
    /// spec, in order.
    pub digest: u64,
}

/// The directory the registry loads from: the env override, else the
/// repository's `workloads/` directory next to the workspace root.
pub fn workload_dir() -> PathBuf {
    match std::env::var_os(WORKLOAD_DIR_ENV) {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads"),
    }
}

/// Loads every `*.workload` file under `dir` in filename order. Files
/// that cannot be read or parsed, or whose `name` an earlier file
/// already took, come back as typed [`LoadError`]s next to the specs
/// that did load. A missing directory is empty.
/// Pure helper behind the process registry, also used by the
/// `export_workloads --check` gate.
pub fn load_dir(dir: &Path) -> LoadedDir {
    let mut loaded = LoadedDir {
        digest: FNV_OFFSET,
        ..LoadedDir::default()
    };
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return loaded,
        Err(error) => {
            loaded.errors.push(LoadError::Io {
                path: dir.to_path_buf(),
                error,
            });
            return loaded;
        }
    };
    let mut paths = Vec::new();
    for entry in read {
        match entry {
            Ok(entry) => paths.push(entry.path()),
            Err(error) => loaded.errors.push(LoadError::Io {
                path: dir.to_path_buf(),
                error,
            }),
        }
    }
    paths.retain(|p| p.extension().is_some_and(|x| x == "workload"));
    paths.sort();
    for path in paths {
        let text = match std::fs::read(&path).and_then(|bytes| {
            String::from_utf8(bytes)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        }) {
            Ok(text) => text,
            Err(error) => {
                loaded.errors.push(LoadError::Io { path, error });
                continue;
            }
        };
        match WorkloadSpec::parse(&text) {
            Ok(spec) => {
                if let Some((first, _)) = loaded.specs.iter().find(|(_, s)| s.name == spec.name) {
                    loaded.errors.push(LoadError::DuplicateName {
                        first: first.clone(),
                        name: spec.name,
                        path,
                    });
                    continue;
                }
                let name = path.file_name().map_or(&[][..], |n| n.as_encoded_bytes());
                loaded.digest = fnv1a_extend(loaded.digest, name);
                loaded.digest = fnv1a_extend(loaded.digest, &[0]);
                loaded.digest = fnv1a_extend(loaded.digest, text.as_bytes());
                loaded.specs.push((path, spec));
            }
            Err(error) => loaded.errors.push(LoadError::Parse { path, error }),
        }
    }
    loaded
}

struct Registry {
    dir: PathBuf,
    entries: Vec<Definition>,
    errors: Vec<LoadError>,
    digest: u64,
}

impl Registry {
    /// Loads `dir`, reporting each file it leaves out once on stderr.
    fn load(dir: PathBuf) -> Registry {
        let loaded = load_dir(&dir);
        for e in &loaded.errors {
            eprintln!("skipping workload file {e}");
        }
        Registry {
            dir,
            entries: loaded
                .specs
                .into_iter()
                .map(|(_, spec)| spec.into())
                .collect(),
            errors: loaded.errors,
            digest: loaded.digest,
        }
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|d| d.name() == name)
    }

    /// The registered definition of a zoo workload.
    fn zoo(&self, w: Workload) -> &Definition {
        let Some(i) = self.find(w.name()) else {
            let errors: String = self.errors.iter().map(|e| format!("\n  {e}")).collect();
            panic!(
                "no `.workload` file named `{}` is registered from {}{errors}\n\
                 run `cargo run --release -p voltascope-bench --bin export_workloads` \
                 to regenerate the zoo files",
                w.name(),
                self.dir.display()
            )
        };
        &self.entries[i]
    }
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry::load(workload_dir()))
}

/// Digest of every registered `.workload` file's name and bytes,
/// computed once at registry load (see [`LoadedDir::digest`]).
pub fn registry_digest() -> u64 {
    registry().digest
}

/// All registered data workloads, in registry (filename) order.
pub fn data_workloads() -> Vec<DataWorkload> {
    (0..registry().entries.len())
        .map(|i| DataWorkload(i as u16))
        .collect()
}

/// Finds a registered data workload by exact spec name.
pub fn find_data(name: &str) -> Option<DataWorkload> {
    registry().find(name).map(|i| DataWorkload(i as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_selectors_convert_and_compare() {
        let sel: WorkloadSel = Workload::AlexNet.into();
        assert_eq!(sel, Workload::AlexNet);
        assert_ne!(sel, Workload::LeNet);
        assert_eq!(sel.name(), "AlexNet");
        assert_eq!(sel.to_string(), "AlexNet");
    }

    #[test]
    fn zoo_salt_tags_are_the_frozen_discriminants() {
        for w in Workload::ALL {
            assert_eq!(WorkloadSel::Zoo(w).salt_tag(), w as u64);
        }
        // Data tags live in a disjoint range.
        assert_eq!(WorkloadSel::Data(DataWorkload(0)).salt_tag(), 0x20);
        assert_eq!(WorkloadSel::Data(DataWorkload(3)).salt_tag(), 0x23);
    }

    #[test]
    fn zoo_and_data_selectors_share_one_spec() {
        for w in Workload::ALL {
            let zoo = WorkloadSel::Zoo(w).definition();
            let data = WorkloadSel::Data(find_data(w.name()).unwrap()).definition();
            assert!(std::ptr::eq(zoo.spec(), data.spec()), "{w}");
            assert_eq!(zoo.name(), w.name());
        }
    }

    #[test]
    fn load_dir_tolerates_missing_directory() {
        let loaded = load_dir(Path::new("/nonexistent/voltascope-workloads"));
        assert!(loaded.specs.is_empty());
        assert!(loaded.errors.is_empty());
    }

    /// A fresh scratch directory under the system temp dir.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("voltascope-workloads-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const GOOD: &str = "workload v1\nname Good\ninput 4\nlayer a fc 0 1 2 4 4 8 0\nend\n";

    #[test]
    fn bad_files_become_typed_errors_and_the_rest_still_load() {
        let dir = temp_dir("mixed");
        std::fs::write(dir.join("a_good.workload"), GOOD).unwrap();
        std::fs::write(dir.join("b_malformed.workload"), "workload v1\nname\n").unwrap();
        std::fs::write(dir.join("c_binary.workload"), [0xff, 0xfe, 0x00, 0x80]).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a workload").unwrap();
        let loaded = load_dir(&dir);
        assert_eq!(loaded.specs.len(), 1);
        assert_eq!(loaded.specs[0].1.name, "Good");
        assert_eq!(loaded.errors.len(), 2);
        assert!(matches!(
            &loaded.errors[0],
            LoadError::Parse { path, .. } if path == &dir.join("b_malformed.workload")
        ));
        match &loaded.errors[1] {
            LoadError::Io { path, error } => {
                assert_eq!(path, &dir.join("c_binary.workload"));
                assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
            }
            other => panic!("expected an Io error, got {other}"),
        }
        assert!(loaded.errors[1].to_string().contains("c_binary.workload"));

        // The digest covers the loaded file's bytes.
        let before = loaded.digest;
        std::fs::write(dir.join("a_good.workload"), GOOD.replace("8 0", "9 0")).unwrap();
        assert_ne!(load_dir(&dir).digest, before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_repeated_name_is_a_typed_error_naming_the_later_file() {
        let dir = temp_dir("duplicate");
        std::fs::write(dir.join("a_good.workload"), GOOD).unwrap();
        std::fs::write(dir.join("b_good.workload"), GOOD.replace("8 0", "9 0")).unwrap();
        let loaded = load_dir(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.specs.len(), 1);
        assert_eq!(loaded.specs[0].0, dir.join("a_good.workload"));
        assert_eq!(loaded.errors.len(), 1);
        assert!(matches!(
            &loaded.errors[0],
            LoadError::DuplicateName { path, name, first }
                if path == &dir.join("b_good.workload")
                    && name == "Good"
                    && first == &dir.join("a_good.workload")
        ));
        assert!(loaded.errors[0].to_string().contains("b_good.workload"));
    }

    #[test]
    #[should_panic(expected = "export_workloads")]
    fn a_broken_zoo_file_panics_with_its_load_error() {
        let dir = temp_dir("broken-zoo");
        std::fs::write(dir.join("lenet.workload"), "workload v1\nname LeNet\n").unwrap();
        let registry = Registry::load(dir.clone());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(registry.errors.len(), 1);
        registry.zoo(Workload::LeNet);
    }

    #[test]
    fn from_name_resolves_zoo_aliases() {
        assert_eq!(
            WorkloadSel::from_name("resnet-50"),
            Some(WorkloadSel::Zoo(Workload::ResNet))
        );
        assert_eq!(WorkloadSel::from_name("definitely-not-a-workload"), None);
    }

    #[test]
    fn checked_in_workload_files_register() {
        // The repository ships the six zoo files plus the transformer;
        // registry order is filename-sorted.
        let names: Vec<&str> = data_workloads().iter().map(|d| d.name()).collect();
        assert!(names.contains(&"LeNet"), "registry: {names:?}");
        assert!(names.contains(&"GPT2-Small"), "registry: {names:?}");
        let gpt = find_data("GPT2-Small").unwrap();
        assert!(gpt.spec().pipeline_stages > 1);
        let def = WorkloadSel::Data(gpt).definition();
        assert_eq!(def.name(), "GPT2-Small");
        assert!(def.lowered(16).is_ok());
    }
}
