//! One-value-at-a-time corruption of a document the simulator reads back,
//! shared by the checkpoint sweep (`serving_faults.rs`) and the tuned-table
//! sweep (`tuned_table.rs`). A document is damaged in one place, handed to
//! `read` (decode, then whatever fit check the document has, then render
//! again), and the verdict is checked; a reader that panics fails the test
//! by itself.

use pimulator::report::Json;

/// How one value of a document is damaged.
#[derive(Debug)]
pub(crate) enum Damage {
    /// Overwritten with this value.
    Put(Json),
    /// An array loses its last element, and then all of them.
    Shorten,
    /// A string grows a letter; an integer has its lowest bit flipped.
    Alter,
}

/// Every value of `doc`: the path `pimulator::report::Node` prints for
/// it, the child positions that lead to it, and the value.
fn values<'a>(root: &str, doc: &'a Json) -> Vec<(String, Vec<usize>, &'a Json)> {
    fn walk<'a>(
        at: &'a Json,
        path: String,
        steps: &[usize],
        out: &mut Vec<(String, Vec<usize>, &'a Json)>,
    ) {
        let children: Vec<(String, &Json)> = match at {
            Json::Arr(items) => {
                items.iter().enumerate().map(|(i, v)| (format!("{path}[{i}]"), v)).collect()
            }
            Json::Obj(pairs) => pairs.iter().map(|(k, v)| (format!("{path}.{k}"), v)).collect(),
            _ => Vec::new(),
        };
        out.push((path, steps.to_vec(), at));
        for (i, (path, child)) in children.into_iter().enumerate() {
            walk(child, path, &[steps, &[i]].concat(), out);
        }
    }
    let mut out = Vec::new();
    walk(doc, root.to_string(), &[], &mut out);
    out
}

/// A copy of `doc` whose value at `steps` went through `edit`.
fn damaged(doc: &Json, steps: &[usize], edit: impl FnOnce(&mut Json)) -> Json {
    let mut copy = doc.clone();
    let mut at = &mut copy;
    for &i in steps {
        at = match at {
            Json::Arr(items) => &mut items[i],
            Json::Obj(pairs) => &mut pairs[i].1,
            _ => unreachable!("steps come from `values`"),
        };
    }
    edit(at);
    copy
}

/// Whether `path` is `pattern` with an index in place of every `*`.
fn fits(path: &str, pattern: &str) -> bool {
    let mut parts = pattern.split('*');
    let Some(mut rest) = path.strip_prefix(parts.next().unwrap_or("")) else { return false };
    for part in parts {
        let index = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        match rest[index..].strip_prefix(part) {
            Some(after) if index > 0 => rest = after,
            _ => return false,
        }
    }
    rest.is_empty()
}

/// Writes `u64::MAX` into every number of `doc` in turn. The reader must
/// refuse the document, or hand back exactly what it was given: a value
/// narrowed on the way in shows as a difference. `derived` names values
/// the writer computes from others and the reader therefore ignores.
pub(crate) fn every_number_at_max(
    root: &str,
    doc: &Json,
    derived: &[&str],
    read: impl Fn(&Json) -> Result<Json, String>,
) {
    for (path, steps, value) in values(root, doc) {
        let number = matches!(value, Json::UInt(_) | Json::Int(_) | Json::Num(_));
        if !number || derived.iter().any(|d| fits(&path, d)) {
            continue;
        }
        let bad = damaged(doc, &steps, |v| *v = Json::UInt(u64::MAX));
        if let Ok(back) = read(&bad) {
            assert!(back == bad, "{path}: u64::MAX went in and something else came out");
        }
    }
}

/// Applies each row's damage to every value whose path fits the row's
/// pattern. The reader must refuse every such document with a message
/// that opens with the path of the damaged value, and every row must
/// find something to damage.
pub(crate) fn every_damage_is_named(
    root: &str,
    doc: &Json,
    table: &[(&str, Damage)],
    read: impl Fn(&Json) -> Result<Json, String>,
) {
    let mut hits = vec![0; table.len()];
    for (path, steps, value) in values(root, doc) {
        for (row, (pattern, damage)) in table.iter().enumerate() {
            if !fits(&path, pattern) {
                continue;
            }
            let bad = match (damage, value) {
                (Damage::Put(put), _) => vec![damaged(doc, &steps, |v| *v = put.clone())],
                (Damage::Shorten, Json::Arr(items)) if !items.is_empty() => vec![
                    damaged(doc, &steps, |v| *v = Json::Arr(items[..items.len() - 1].to_vec())),
                    damaged(doc, &steps, |v| *v = Json::Arr(Vec::new())),
                ],
                (Damage::Alter, Json::Str(s)) => {
                    vec![damaged(doc, &steps, |v| *v = Json::Str(format!("{s}x")))]
                }
                (Damage::Alter, Json::UInt(u)) => {
                    vec![damaged(doc, &steps, |v| *v = Json::UInt(u ^ 1))]
                }
                _ => continue,
            };
            hits[row] += bad.len();
            for bad in bad {
                match read(&bad) {
                    Ok(_) => panic!("{path}: {damage:?} was accepted"),
                    Err(err) => assert!(err.starts_with(&format!("{path}: ")), "{path}: {err}"),
                }
            }
        }
    }
    for ((pattern, damage), hits) in table.iter().zip(hits) {
        assert!(hits > 0, "nothing in the document fits {pattern} for {damage:?}");
    }
}
