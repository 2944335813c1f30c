//! A row larger than a page is refused, not inserted forever.
//!
//! The heap used to loop allocating overflow pages when a page refused an
//! oversized record: an insert of a 9 KiB text never returned, an update
//! that grew a row past a page removed the old version first and then did
//! the same, and a monitored statement whose text was over 8 KiB wedged the
//! daemon's next `wl_statements` copy. Each case runs under [`bounded`],
//! which ends the process when the work neither returns within a minute nor
//! stays within 256 MiB of growth — what the loop did.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ingot::common::StmtHash;
use ingot::core::monitor::records::FILED_TEXT_MAX;
use ingot::prelude::*;
use ingot::storage::{BufferPool, DiskModel, HeapFile};

/// Bigger than a heap page.
const FAT: usize = 9 * 1024;

/// Resident set of this process in KiB; 0 where `/proc` is absent.
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Run `work` on a thread of its own and return what it returns. Work that
/// spins takes the process down with it: a failed assertion would leave the
/// loop allocating until the test binary exits.
fn bounded<T: Send + 'static>(what: &str, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    let (start, rss_before) = (Instant::now(), rss_kib());
    loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(out) => {
                worker
                    .join()
                    .expect("the work thread ends once it has sent");
                return out;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => panic!("{what}: the work sent nothing"),
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let grown_mib = rss_kib().saturating_sub(rss_before) / 1024;
                if start.elapsed() > Duration::from_secs(60) || grown_mib > 256 {
                    eprintln!(
                        "{what} never returned ({:?}, +{grown_mib} MiB)",
                        start.elapsed()
                    );
                    std::process::exit(101);
                }
            }
        }
    }
}

#[test]
fn an_insert_larger_than_a_page_is_refused() {
    let engine = Engine::builder()
        .config(EngineConfig::default())
        .build()
        .unwrap();
    let (insert, rows) = bounded("an insert of a 9 KiB text", move || {
        let s = engine.open_session();
        s.execute("create table doc (id int not null primary key, body text)")
            .unwrap();
        s.execute("insert into doc values (1, 'short')").unwrap();
        let insert = s.execute(&format!(
            "insert into doc values (2, '{}')",
            "x".repeat(FAT)
        ));
        (
            insert.map(|_| ()),
            s.execute("select * from doc").unwrap().rows,
        )
    });
    assert!(matches!(insert, Err(Error::Storage(_))), "{insert:?}");
    let short = Row::new(vec![Value::Int(1), Value::Str("short".into())]);
    assert_eq!(rows, vec![short], "the table is as it was");
}

#[test]
fn an_update_that_outgrows_a_page_keeps_the_old_row() {
    let pool = Arc::new(BufferPool::new(
        Box::new(MemoryBackend::new()),
        DiskModel::new(SimClock::new()),
        64,
    ));
    let heap = Arc::new(HeapFile::create(Arc::clone(&pool), 1).unwrap());
    let short = Row::new(vec![Value::Int(1), Value::Str("short".into())]);
    let id = heap.insert(&short).unwrap();
    let fat = Row::new(vec![Value::Int(1), Value::Str("y".repeat(FAT))]);
    let requests = || pool.stats().hits + pool.stats().misses;
    let before = requests();
    let updated = bounded("an update to a 9 KiB row", {
        let heap = Arc::clone(&heap);
        move || heap.update(id, &fat)
    });
    assert!(matches!(updated, Err(Error::Storage(_))), "{updated:?}");
    assert_eq!(requests(), before, "refused before any page is fetched");
    assert_eq!(heap.get(id).unwrap(), short);
    assert_eq!((heap.version_count(), heap.stats().total_pages()), (1, 1));
}

#[test]
fn a_poll_after_a_statement_over_a_page_files_its_text_cut() {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    let s = engine.open_session();
    s.execute("create table doc (id int not null, body text)")
        .unwrap();
    // Over 8 KiB of statement text in two-byte characters, so that the cut
    // has a char boundary to respect.
    let text = format!(
        "select count(*) from doc where body <> '{}'",
        "é".repeat(FAT / 2)
    );
    s.execute(&text).unwrap();
    bounded("poll_once after a 9 KiB statement", move || {
        daemon.poll_once()
    })
    .unwrap();

    let hash = StmtHash::of(&text);
    let filed = wldb
        .query(&format!(
            "select query_text from wl_statements where hash = '{hash}'"
        ))
        .unwrap();
    let [row] = filed.as_slice() else {
        panic!("{filed:?}")
    };
    let cut = row.get(0).as_str().unwrap();
    assert!(
        text.starts_with(cut) && FILED_TEXT_MAX - cut.len() < 2,
        "{}",
        cut.len()
    );
    let live = s
        .execute(&format!(
            "select query_text from ima$statements where hash = '{hash}'"
        ))
        .unwrap()
        .rows;
    assert_eq!(
        live, filed,
        "ima$statements and wl_statements file one text"
    );
}
