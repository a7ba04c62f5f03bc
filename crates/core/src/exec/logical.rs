//! The logical executor: runs one query to completion, counting node
//! accesses (the effectiveness metric of Figures 8–9).

use super::clock::VirtualClock;
use super::session::{CpuCharge, Narrator, QueryRun, Session};
use crate::access::AccessMethod;
use crate::algo::SimilaritySearch;
use crate::error::QueryError;

/// Runs `algo` against any access method until completion.
///
/// Batches are fetched atomically: the algorithm receives all requested
/// nodes at once, exactly as the disk array would deliver them (order
/// within a batch is preserved but carries no timing meaning here).
pub fn run_query(
    am: &(impl AccessMethod + ?Sized),
    algo: &mut dyn SimilaritySearch,
) -> Result<QueryRun, QueryError> {
    let mut scratch = crate::QueryScratch::new();
    run_query_with(am, algo, &mut scratch)
}

/// [`run_query`] over a reusable [`crate::QueryScratch`]: the fetched-batch
/// buffer is borrowed from the scratch, so a sweep of queries re-fills one
/// allocation instead of building a fresh `Vec` per batch, and an `algo`
/// built over the same scratch ([`crate::AlgorithmKind::build_with`])
/// hands its working memory back to it on the way out.
///
/// The session core with the scheduling taken out: every page is read
/// the moment it is asked for, no clock runs and nothing is narrated.
pub fn run_query_with(
    am: &(impl AccessMethod + ?Sized),
    algo: &mut dyn SimilaritySearch,
    scratch: &mut crate::QueryScratch,
) -> Result<QueryRun, QueryError> {
    let clock = VirtualClock::new();
    let mut nar = Narrator::new(&clock, None, am.root_page());
    scratch.batch.clear();
    let mut session = Session::new(algo, 0, std::mem::take(&mut scratch.batch));
    session.arrive(&mut nar);
    let mut pages = std::mem::take(&mut scratch.pages);
    while session.next_batch(&mut nar, &mut pages)? {
        for &page in &pages {
            let node = am.read_index_node(page)?;
            session.deliver(&mut nar, page, node, |_, _| CpuCharge::default())?;
        }
    }
    scratch.pages = pages;
    Ok(session.finish(scratch))
}
