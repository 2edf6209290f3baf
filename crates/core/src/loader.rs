//! The staged parallel bulk-load pipeline.
//!
//! Wires the stages together for [`crate::Parj`]'s text-based load
//! APIs. For N-Triples:
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

use parj_rio::{drain_triples, LoadReport, OnParseError, ParseError, RawTriple};
use parj_store::StoreBuilder;

use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{LockLevel, OrderedMutex};

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
    slots.into_iter().map(|s| s.expect("chunk computed")).collect()
}

/// Scans and stages N-Triples text on `threads` workers under
/// `policy`. Statements before an abort remain staged and nothing after
/// it is interned; the returned report (or error) is exactly what the
/// serial reader path would produce.
pub(crate) fn load_ntriples_text(
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
pub(crate) fn parse_turtle_text(
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
