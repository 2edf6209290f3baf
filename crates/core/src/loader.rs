//! Staging: the [`Loader`] that builds an engine, and the parallel
//! bulk-load pipeline behind it.
//!
//! For N-Triples text the pipeline is:
//!
//! ```text
//!  input text ──► chunk split ──► scan ×N ──────► policy pass ──► collect/assign/route ×N
//!                 (line           (borrowed       (serial, over    (StoreBuilder::
//!                  boundaries)     triples +       per-chunk        add_triples_parallel,
//!                                  error summary)  outcomes only)   chunks as scanned)
//! ```
//!
//! Terms stay slices of the input from the scanner to the dictionary
//! probe, which copies only a key it has not seen. Chunk boundaries and
//! thread counts only change scheduling, never the dictionary, the
//! store, or the `LoadReport`. For N-Triples that holds by
//! construction: lines scan independently, each chunk records where its
//! malformed lines sit among its good ones, and those outcomes are
//! replayed in document order through the same [`drain_triples`] policy
//! machinery the serial reader path uses; what it did not admit is cut
//! off the chunk vectors before anything is interned. Turtle chunks are
//! borrowed triples too, cut at statement boundaries; the chunked path
//! only handles documents it can parse strictly, and any split or parse
//! failure parses the document again as one chunk, the single source of
//! truth for error positions and lossy recovery.

use std::io::BufRead;
use std::path::Path;
use std::time::Instant;

use parj_obs::EngineMetrics;
use parj_rio::{drain_triples, LoadReport, NTriplesParser, OnParseError, ParseError, RawTriple};
use parj_store::StoreBuilder;

use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{Arc, LockLevel, OrderedMutex};

use crate::engine::{EngineConfig, Parj};
use crate::error::ParjError;

/// Where a [`Loader::load`] reads its statements from.
pub enum LoadSource<'a> {
    /// Text in memory, run through the parallel load pipeline on
    /// [`EngineConfig::load_threads`] workers.
    Text(&'a str),
    /// A file, read whole and then loaded as [`LoadSource::Text`].
    Path(&'a Path),
    /// Any buffered reader. N-Triples streams serially, line by line;
    /// Turtle is read whole and loaded as [`LoadSource::Text`].
    Reader(&'a mut dyn BufRead),
}

/// The syntax a [`Loader::load`] parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdfFormat {
    /// One statement per line.
    NTriples,
    /// Turtle: prefixes, `;`/`,` lists and abbreviated literals.
    Turtle,
}

/// Staging for a new engine: load triples into it, then
/// [`Loader::finish`] builds partitions, statistics and thresholds once
/// (running Algorithm 2's calibration when
/// [`EngineConfig::calibrate`] is on) and returns a ready [`Parj`].
/// Started by [`EngineConfig::loader`], or by [`Parj::into_loader`] to
/// rebuild a live engine with more data.
///
/// ```
/// use parj_core::{LoadSource, OnParseError, Parj, RdfFormat};
///
/// let mut loader = Parj::builder().threads(2).loader();
/// let report = loader.load(
///     LoadSource::Text("<http://e/a> <http://e/p> <http://e/b> ."),
///     RdfFormat::NTriples,
///     OnParseError::Abort,
/// ).unwrap();
/// assert_eq!(report.loaded, 1);
/// let engine = loader.finish();
/// assert_eq!(engine.num_triples(), 1);
/// ```
pub struct Loader {
    config: EngineConfig,
    staged: StoreBuilder,
    /// The registry the finished engine adopts, so load counters and
    /// query counters accumulate in one place.
    metrics: Arc<EngineMetrics>,
}

impl Loader {
    pub(crate) fn new(
        config: EngineConfig,
        staged: StoreBuilder,
        metrics: Arc<EngineMetrics>,
    ) -> Self {
        Loader {
            config,
            staged,
            metrics,
        }
    }

    /// Parses `input` as `format` and stages its statements under
    /// `on_error`. With [`OnParseError::Skip`], malformed statements
    /// are dropped (bounded by `max_errors`) and the returned
    /// [`LoadReport`] records their positioned diagnostics. On an
    /// N-Triples abort the statements before the bad one stay staged,
    /// at any thread count; a Turtle abort stages nothing. Loads
    /// compose: each one adds to what earlier ones staged.
    pub fn load(
        &mut self,
        input: LoadSource<'_>,
        format: RdfFormat,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let threads = self.config.load_threads;
        let t0 = Instant::now();
        let (report, bytes) = match (input, format) {
            (LoadSource::Path(path), _) => {
                let text = std::fs::read_to_string(path)?;
                return self.load(LoadSource::Text(&text), format, on_error);
            }
            (LoadSource::Reader(reader), RdfFormat::Turtle) => {
                let mut text = String::new();
                reader.read_to_string(&mut text)?;
                return self.load(LoadSource::Text(&text), format, on_error);
            }
            (LoadSource::Reader(reader), RdfFormat::NTriples) => {
                let staged = &mut self.staged;
                let report = drain_triples(NTriplesParser::new(reader), on_error, |(s, p, o)| {
                    staged.add_term_triple(&s, &p, &o);
                })?;
                // Input size is unknown for a streaming reader; only the
                // statement counters advance.
                (report, 0)
            }
            (LoadSource::Text(text), RdfFormat::NTriples) => (
                load_ntriples_text(&mut self.staged, text, on_error, threads)?,
                text.len(),
            ),
            (LoadSource::Text(text), RdfFormat::Turtle) => {
                let (parts, report) = parse_turtle_text(text, on_error, threads)?;
                self.staged.add_triples_parallel(parts, threads);
                (report, text.len())
            }
        };
        if self.config.record_metrics {
            self.metrics.record_load(
                report.loaded as u64,
                report.skipped as u64,
                t0.elapsed().as_micros() as u64,
                bytes as u64,
            );
        }
        Ok(report)
    }

    /// Builds the store from everything staged and returns the ready
    /// engine, with its own worker pool.
    pub fn finish(self) -> Parj {
        let pool = self.config.worker_pool();
        self.finish_on(pool)
    }

    /// [`Loader::finish`] onto an existing worker pool.
    pub(crate) fn finish_on(self, pool: Option<parj_join::WorkerPool>) -> Parj {
        let store = self
            .staged
            .build_with(self.config.effective_store_options());
        Parj::assemble(self.config, self.metrics, pool, store)
    }
}

impl std::fmt::Debug for Loader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loader")
            .field("config", &self.config)
            .finish()
    }
}

/// Chunks cut per worker thread: enough slack that an uneven chunk
/// (comment-heavy region, long literals) cannot stall the whole load.
const CHUNKS_PER_THREAD: usize = 4;

/// Runs `f(0..n)` on `threads` workers drawing indexes from a shared
/// counter; results come back in index order.
fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, threads: usize, f: F) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    let slot_ptrs: Vec<OrderedMutex<&mut Option<T>>> = slots
        .iter_mut()
        .map(|s| OrderedMutex::new(LockLevel::Staging, "staging.loader_slot", s))
        .collect();
    parj_sync::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                // ordering: Relaxed — index ticket only; each result is
                // published through its slot Mutex, and completion
                // through the scope join edge (loom_parallel model).
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                **slot_ptrs[i].lock() = Some(out);
            });
        }
    });
    drop(slot_ptrs);
    slots
        .into_iter()
        .map(|s| s.expect("chunk computed"))
        .collect()
}

/// Scans and stages N-Triples text on `threads` workers under
/// `policy`. Statements before an abort remain staged and nothing after
/// it is interned; the returned report (or error) is exactly what the
/// serial reader path would produce.
fn load_ntriples_text(
    staged: &mut StoreBuilder,
    text: &str,
    policy: OnParseError,
    threads: usize,
) -> Result<LoadReport, ParseError> {
    let threads = threads.max(1);
    let chunks = parj_rio::split_ntriples(text, threads * CHUNKS_PER_THREAD);
    let parsed = par_map(chunks.len(), threads, |i| {
        parj_rio::parse_ntriples_chunk(text, &chunks[i])
    });
    // Serial policy pass in document order over the outcomes alone.
    let mut admitted = 0usize;
    let outcomes = parsed.iter().flat_map(|chunk| chunk.outcomes());
    let result = drain_triples(outcomes, policy, |()| admitted += 1);
    // Keep the admitted prefix: an abort cuts its chunk short and
    // empties the later ones. Byte-even chunks are an even split.
    let mut parts: Vec<_> = parsed.into_iter().map(|chunk| chunk.triples).collect();
    for part in &mut parts {
        part.truncate(admitted);
        admitted -= part.len();
    }
    staged.add_triples_parallel(parts, threads);
    result
}

/// Parses Turtle text on `threads` workers, returning chunked triples
/// borrowing from `text`, ready for [`StoreBuilder::add_triples_parallel`],
/// plus the load report. Clean documents take the chunked strict path;
/// anything the splitter or a chunk parser rejects is parsed again as
/// one chunk under `policy` and handed on as one chunk, so errors and
/// lossy recovery do not depend on the thread count. On `Err` nothing
/// should be staged (a Turtle load stages nothing on abort).
fn parse_turtle_text(
    text: &str,
    policy: OnParseError,
    threads: usize,
) -> Result<(Vec<Vec<RawTriple<'_>>>, LoadReport), ParseError> {
    let threads = threads.max(1);
    if let Some(parts) = try_parallel_turtle(text, threads) {
        let report = LoadReport {
            loaded: parts.iter().map(Vec::len).sum(),
            ..LoadReport::default()
        };
        return Ok((parts, report));
    }
    let (triples, report) = parj_rio::parse_turtle_document(text, policy)?;
    Ok((vec![triples], report))
}

fn try_parallel_turtle(text: &str, threads: usize) -> Option<Vec<Vec<RawTriple<'_>>>> {
    let chunks = parj_rio::split_turtle(text, threads * CHUNKS_PER_THREAD)?;
    let parsed = par_map(chunks.len(), threads, |i| {
        parj_rio::parse_turtle_chunk(text, &chunks[i])
    });
    let parts = parsed.into_iter().collect::<Result<_, _>>().ok()?;
    Some(parj_rio::finish_turtle_chunks(parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_source_stages_the_same_store() {
        let text = "<http://e/a> <http://e/p> <http://e/b> .\n<http://e/b> <http://e/p> \"c\" .\n";
        let path = std::env::temp_dir().join(format!("parj-loader-{}.nt", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let staged = |input: LoadSource<'_>| {
            let mut loader = EngineConfig::default().loader();
            let report = loader
                .load(input, RdfFormat::NTriples, OnParseError::Abort)
                .unwrap();
            assert_eq!(report.loaded, 2);
            loader.finish().store().to_snapshot_bytes()
        };
        let from_text = staged(LoadSource::Text(text));
        assert_eq!(staged(LoadSource::Path(&path)), from_text);
        std::fs::remove_file(&path).unwrap();
        // A missing file is an I/O error and stages nothing.
        let mut loader = EngineConfig::default().loader();
        let missing = loader.load(
            LoadSource::Path(&path),
            RdfFormat::Turtle,
            OnParseError::Abort,
        );
        assert!(matches!(missing, Err(ParjError::Io(_))), "{missing:?}");
        assert_eq!(loader.finish().num_triples(), 0);
    }
}
