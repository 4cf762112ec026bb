//! Output checks: every response is compared with what the campus says
//! it must be. A response that fails a check counts as a failed request.

use std::collections::HashSet;

use cr_server::protocol::Response;

use crate::gen::{Expect, Facts, K_MIN, LIMIT};

/// `Err` names the first violated expectation.
pub fn check(expect: &Expect, resp: &Response, facts: &Facts) -> Result<(), String> {
    match (expect, resp) {
        (Expect::Page(title), Response::Page { text }) if text.contains(title.as_str()) => Ok(()),
        (Expect::Hits, Response::SearchResults { hits, .. }) => {
            if hits.len() > LIMIT as usize {
                return Err(format!("{} hits for limit {LIMIT}", hits.len()));
            }
            match hits.iter().find(|h| facts.title_of(h.course).is_none()) {
                Some(h) => Err(format!("hit names unknown course {}", h.course)),
                None => Ok(()),
            }
        }
        (Expect::Recs, Response::Recommendations { recs }) => {
            let unique: HashSet<i64> = recs.iter().map(|r| r.course).collect();
            if recs.len() > LIMIT as usize || unique.len() != recs.len() {
                return Err(format!("{} recs, {} unique", recs.len(), unique.len()));
            }
            Ok(())
        }
        (Expect::Plan, Response::PlanSummary { .. }) => Ok(()),
        (Expect::Title(title), Response::Rows { rows, .. }) => match rows.as_slice() {
            [row] if row.first().and_then(|v| v.as_text().ok()) == Some(title.as_str()) => Ok(()),
            _ => Err(format!(
                "point lookup returned {rows:?}, expected {title:?}"
            )),
        },
        (Expect::KAggregate, Response::Rows { rows, .. }) => {
            let small = rows.iter().find(|r| {
                r.last()
                    .and_then(|v| v.as_int().ok())
                    .is_none_or(|n| n < K_MIN)
            });
            match small {
                Some(r) => Err(format!("k-aggregate group below {K_MIN}: {r:?}")),
                None => Ok(()),
            }
        }
        (Expect::Rows, Response::Rows { .. }) => Ok(()),
        (Expect::Comment(id), Response::Rows { rows, .. }) => match rows.as_slice() {
            [row] if row.first().and_then(|v| v.as_int().ok()) == Some(*id) => Ok(()),
            _ => Err(format!("own comment {id} not visible: {rows:?}")),
        },
        (Expect::CommentAdded, Response::CommentAdded { .. }) => Ok(()),
        (Expect::Written, Response::Written) => Ok(()),
        (expect, resp) => Err(format!("expected {expect:?}, got {resp:?}")),
    }
}
