//! End-to-end out-of-core streaming (DESIGN.md §13): a Pubmed-shaped
//! graph whose adjacency exceeds the host-memory budget runs from a
//! chunked on-disk store — cold, prepared, and served — bit-identical to
//! the fully resident run, with peak resident sparse bytes bounded by the
//! budget and the store's exact byte volume accounted as I/O.

use awb_gcn_repro::accel::{AccelConfig, Design, GcnRunner, GcnService};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::store::SparseStore;

fn input_for(spec: &DatasetSpec, seed: u64) -> GcnInput {
    let data = GeneratedDataset::generate(spec, seed).unwrap();
    GcnInput::from_dataset(&data).unwrap()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "awb-ooc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ))
}

fn bits(m: &awb_gcn_repro::sparse::DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The acceptance path of the feature: adjacency larger than the budget,
/// streamed from disk, bit-identical under budget.
#[test]
fn pubmed_streams_from_store_bit_identical_under_budget() {
    let spec = DatasetSpec::pubmed().with_nodes(2048);
    let input = input_for(&spec, 21);
    let resident_bytes = input.a_norm_csc.heap_bytes();
    // A budget well below the matrix, so streaming *must* shard.
    let budget = resident_bytes / 3;

    let base =
        Design::LocalPlusRemote { hop: 2 }.apply(AccelConfig::builder().n_pes(64).build().unwrap());
    let reference = GcnRunner::new(base.clone()).run(&input).unwrap();
    assert_eq!(
        reference.stream, None,
        "resident runs carry no stream stats"
    );

    let dir = scratch_dir("pubmed");
    std::fs::remove_dir_all(&dir).ok();
    let mut config = base.clone();
    config.store = Some(dir.clone());
    config.host_mem_budget = Some(budget);

    // Cold run: the store is written on first use, then streamed.
    let cold = GcnRunner::new(config.clone()).run(&input).unwrap();
    assert_eq!(bits(&cold.output), bits(&reference.output));
    let stream = cold.stream.expect("streamed run reports stats");
    assert!(stream.shards > 1, "budget {budget} must force sharding");
    assert!(
        stream.resident_peak_bytes <= budget,
        "peak {} exceeds budget {budget}",
        stream.resident_peak_bytes,
    );
    assert!(stream.resident_peak_bytes < resident_bytes);
    let store = SparseStore::open(&dir).unwrap();
    assert_eq!(
        stream.io_bytes,
        store.column_disk_bytes(),
        "one full pass reads exactly the column mirror"
    );

    // Prepared plan + warm sessions: same bits, same bounds, store reused
    // (prepare revalidates instead of rewriting).
    let (plan, prep) = GcnRunner::new(config).prepare(&input).unwrap();
    assert_eq!(bits(&prep.output), bits(&reference.output));
    let warm = plan.run_input(&input).unwrap();
    assert_eq!(bits(&warm.output), bits(&reference.output));
    let warm_stream = warm.stream.expect("warm streamed run reports stats");
    assert!(warm_stream.resident_peak_bytes <= budget);
    assert_eq!(plan.shard_count(), stream.shards);

    std::fs::remove_dir_all(&dir).ok();
}

/// `prepare`'s warm-up is the cold run, streaming statistics included:
/// one full pass over the column mirror, reported on the warm-up outcome.
#[test]
fn prepare_warmup_reports_its_own_stream_stats() {
    let spec = DatasetSpec::cora().with_nodes(512);
    let input = input_for(&spec, 13);
    let dir = scratch_dir("prepare");
    std::fs::remove_dir_all(&dir).ok();
    let mut config = AccelConfig::builder().n_pes(32).build().unwrap();
    config.store = Some(dir.clone());
    config.host_mem_budget = Some(input.a_norm_csc.heap_bytes() / 2);

    let (_plan, warmup) = GcnRunner::new(config).prepare(&input).unwrap();
    let stream = warmup.stream.expect("a streamed warm-up reports stats");
    assert!(stream.shards > 1);
    let store = SparseStore::open(&dir).unwrap();
    assert_eq!(stream.io_bytes, store.column_disk_bytes());

    std::fs::remove_dir_all(&dir).ok();
}

/// The serving front-end surfaces streaming in its prepare report and
/// keeps served outputs bit-identical to resident cold runs.
#[test]
fn service_reports_streaming_and_serves_identical_outputs() {
    let spec = DatasetSpec::cora().with_nodes(512);
    let input = input_for(&spec, 9);
    let budget = input.a_norm_csc.heap_bytes() / 2;

    let base =
        Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(32).build().unwrap());
    let reference = GcnRunner::new(base.clone()).run(&input).unwrap();

    let dir = scratch_dir("serve");
    std::fs::remove_dir_all(&dir).ok();
    let mut config = base;
    config.store = Some(dir.clone());
    config.host_mem_budget = Some(budget);

    let mut service = GcnService::new(config);
    let report = service.prepare("cora", &input).unwrap();
    let stream = report.stream.expect("streamed prepare reports stats");
    assert!(stream.shards > 1);
    assert!(stream.resident_peak_bytes <= budget);
    assert!(stream.io_bytes > 0);

    let outcome = service
        .serve("cora", std::slice::from_ref(&input.x1))
        .unwrap();
    assert_eq!(
        bits(&outcome.requests[0].outcome.output),
        bits(&reference.output)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Ingest validation end to end: a corrupted chunk blob is rejected at
/// open with a typed error — never a panic, never silently-resident.
#[test]
fn corrupted_store_is_rejected_with_typed_error() {
    let spec = DatasetSpec::cora().with_nodes(256);
    let input = input_for(&spec, 5);
    let dir = scratch_dir("corrupt");
    std::fs::remove_dir_all(&dir).ok();

    let mut config = AccelConfig::builder().n_pes(16).build().unwrap();
    config.store = Some(dir.clone());
    // Write a valid store via a first run, then truncate one chunk blob.
    GcnRunner::new(config.clone()).run(&input).unwrap();
    let chunk = std::fs::read_dir(dir.join("by_column").join("data"))
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("chunk-"))
        })
        .expect("store holds chunk blobs");
    let blob = std::fs::read(&chunk).unwrap();
    std::fs::write(&chunk, &blob[..blob.len() / 2]).unwrap();

    let err = GcnRunner::new(config).run(&input).unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("sparse store"),
        "expected a typed store error, got: {text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
