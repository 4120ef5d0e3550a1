//! Output checks computed apart from the program: covers are re-derived
//! from plain element lists with a `Vec<bool>` per step, never through
//! `SetSystem`, `BitSet` or the greedy solvers under test.
//!
//! Each check returns `Err` with a reason; [`must_reject`] turns a check
//! that accepts a deliberately corrupted answer into a failure, so every
//! run shows its checks able to fail.

use streamcover_core::SetSystem;

/// The checker's own copy of an instance: one sorted element list per set.
#[derive(Clone)]
pub struct Lists {
    pub universe: usize,
    pub sets: Vec<Vec<u32>>,
}

impl Lists {
    /// Reads the element lists of every set once, at generation time.
    pub fn of(sys: &SetSystem) -> Lists {
        Lists {
            universe: sys.universe(),
            sets: sys
                .iter()
                .map(|(_, s)| s.iter().map(|e| e as u32).collect())
                .collect(),
        }
    }

    /// Every element of the universe, as a target mask.
    pub fn full(&self) -> Vec<bool> {
        vec![true; self.universe]
    }

    /// The mask of `elems`.
    pub fn mask(&self, elems: &[u32]) -> Vec<bool> {
        let mut m = vec![false; self.universe];
        for &e in elems {
            m[e as usize] = true;
        }
        m
    }

    fn set(&self, id: usize) -> Result<&[u32], String> {
        self.sets
            .get(id)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("pick {id} is not a set of the instance"))
    }

    /// `|S_id ∩ uncovered|`.
    fn gain(&self, id: usize, uncovered: &[bool]) -> usize {
        self.sets[id]
            .iter()
            .filter(|&&e| uncovered[e as usize])
            .count()
    }
}

/// Elements of `target` that some set of the instance contains.
fn coverable(lists: &Lists, target: &[bool]) -> Vec<bool> {
    let mut c = vec![false; lists.universe];
    for s in &lists.sets {
        for &e in s {
            c[e as usize] = target[e as usize];
        }
    }
    c
}

/// Checks a cover answer of at most `budget` picks: when it stops short
/// of the budget it must cover every coverable element of `target`.
/// Returns how many target elements the picks cover.
pub fn cover(
    lists: &Lists,
    picks: &[usize],
    target: &[bool],
    budget: usize,
) -> Result<usize, String> {
    if picks.len() > budget {
        return Err(format!("{} picks exceed the budget {budget}", picks.len()));
    }
    let mut covered = vec![false; lists.universe];
    for &p in picks {
        for &e in lists.set(p)? {
            covered[e as usize] = true;
        }
    }
    if picks.len() < budget {
        let want = coverable(lists, target);
        if let Some(e) = (0..lists.universe).find(|&e| want[e] && !covered[e]) {
            return Err(format!("element {e} is coverable but left uncovered"));
        }
    }
    Ok((0..lists.universe)
        .filter(|&e| target[e] && covered[e])
        .count())
}

/// Checks the greedy-choice property: at every step the pick's marginal
/// gain on the uncovered part of `target` is positive and at least every
/// other set's, and the picks stop short of `max_picks` only when no set
/// gains anything.
pub fn greedy(
    lists: &Lists,
    picks: &[usize],
    target: &[bool],
    max_picks: usize,
) -> Result<(), String> {
    let mut uncovered = target.to_vec();
    for (step, &p) in picks.iter().enumerate() {
        lists.set(p)?;
        let best = (0..lists.sets.len())
            .map(|i| lists.gain(i, &uncovered))
            .max()
            .unwrap_or(0);
        let g = lists.gain(p, &uncovered);
        if g == 0 || g < best {
            return Err(format!(
                "step {step}: pick {p} gains {g} but the best set gains {best}"
            ));
        }
        for &e in &lists.sets[p] {
            uncovered[e as usize] = false;
        }
    }
    if picks.len() > max_picks {
        return Err(format!(
            "{} picks exceed the budget {max_picks}",
            picks.len()
        ));
    }
    if picks.len() < max_picks {
        if let Some(i) = (0..lists.sets.len()).find(|&i| lists.gain(i, &uncovered) > 0) {
            return Err(format!(
                "stopped after {} picks although set {i} still gains",
                picks.len()
            ));
        }
    }
    Ok(())
}

/// Checks `value ≤ bound`.
pub fn at_most(what: &str, value: usize, bound: usize) -> Result<(), String> {
    if value <= bound {
        Ok(())
    } else {
        Err(format!("{what} = {value} exceeds {bound}"))
    }
}

/// Checks that two reports are equal.
pub fn equal<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differ: {a:?} vs {b:?}"))
    }
}

/// Fails unless `check` rejected its (corrupted) input.
pub fn must_reject<T>(name: &str, check: Result<T, String>) -> Result<(), String> {
    match check {
        Err(_) => Ok(()),
        Ok(_) => Err(format!(
            "self-test: check `{name}` accepted a corrupted answer"
        )),
    }
}

/// Corruption: `picks` without one set that alone covers some element of
/// `target` (a set dropped from a cover).
pub fn drop_essential(lists: &Lists, picks: &[usize], target: &[bool]) -> Vec<usize> {
    let mut mult = vec![0u32; lists.universe];
    for &p in picks {
        for &e in &lists.sets[p] {
            mult[e as usize] += 1;
        }
    }
    let essential = picks
        .iter()
        .position(|&p| {
            lists.sets[p]
                .iter()
                .any(|&e| target[e as usize] && mult[e as usize] == 1)
        })
        .expect("a nonempty cover has an essential set");
    let mut out = picks.to_vec();
    out.remove(essential);
    out
}

/// Corruption: the first pick whose step has a set of strictly lower gain
/// is swapped for that set (a greedy pick swapped for a lower-gain set).
pub fn swap_lower(lists: &Lists, picks: &[usize], target: &[bool]) -> Vec<usize> {
    let mut uncovered = target.to_vec();
    for (step, &p) in picks.iter().enumerate() {
        let g = lists.gain(p, &uncovered);
        if let Some(lower) = (0..lists.sets.len()).find(|&i| lists.gain(i, &uncovered) < g) {
            let mut out = picks.to_vec();
            out[step] = lower;
            return out;
        }
        for &e in &lists.sets[p] {
            uncovered[e as usize] = false;
        }
    }
    panic!("every set ties with every pick: nothing to swap")
}

/// Self-tests of [`cover`] and [`greedy`] on one real greedy answer.
pub fn self_test_greedy_answer(
    lists: &Lists,
    picks: &[usize],
    target: &[bool],
    max_picks: usize,
) -> Result<(), String> {
    if picks.is_empty() {
        return Ok(());
    }
    must_reject(
        "cover",
        cover(
            lists,
            &drop_essential(lists, picks, target),
            target,
            max_picks,
        ),
    )?;
    must_reject(
        "greedy",
        greedy(lists, &swap_lower(lists, picks, target), target, max_picks),
    )
}
