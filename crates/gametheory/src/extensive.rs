//! Finite extensive-form games and backward induction.
//!
//! Utility model II (§2.4.3) treats path formation as an L-stage game in
//! which exactly one player moves per stage; its equilibrium "can be
//! derived using backward induction". [`GameTree`] represents such a game
//! as an arena of decision and terminal nodes; [`GameTree::solve`] computes
//! the subgame perfect Nash equilibrium (SPNE) action at every decision
//! node together with the induced value vector, in one bottom-up pass.
//!
//! This is the workspace's one general backward induction: the Model II
//! router (`idpa_core::routing`) is tested against the SPNE of its
//! L-stage game built as a [`GameTree`] (`idpa-core`'s
//! `model2_backward_induction` suite).

/// Index of a node in the game tree arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(pub usize);

#[derive(Debug, Clone)]
enum Node {
    Decision {
        player: usize,
        /// `(action label, child)` pairs; at least one.
        actions: Vec<(String, NodeRef)>,
    },
    Terminal {
        /// One payoff per player.
        payoffs: Vec<f64>,
    },
}

/// A finite extensive-form game with perfect information.
#[derive(Debug, Clone)]
pub struct GameTree {
    n_players: usize,
    nodes: Vec<Node>,
    root: Option<NodeRef>,
}

/// Result of backward induction.
#[derive(Debug, Clone)]
pub struct SpneSolution {
    /// For every decision node (by arena index): the equilibrium action
    /// index; `None` for terminal nodes.
    pub choice: Vec<Option<usize>>,
    /// SPNE value vector (one payoff per player) of every node.
    value: Vec<Vec<f64>>,
}

impl SpneSolution {
    /// Value vector (one payoff per player) of `node` under the SPNE.
    #[must_use]
    pub fn value(&self, node: NodeRef) -> &[f64] {
        &self.value[node.0]
    }

    /// The equilibrium payoffs at the root.
    #[must_use]
    pub fn root_value<'a>(&'a self, tree: &GameTree) -> &'a [f64] {
        self.value(tree.root.expect("empty tree"))
    }

    /// The equilibrium path from the root: `(node, action label)` pairs.
    #[must_use]
    pub fn equilibrium_path(&self, tree: &GameTree) -> Vec<(NodeRef, String)> {
        let mut out = Vec::new();
        let mut cur = tree.root.expect("empty tree");
        while let Node::Decision { actions, .. } = &tree.nodes[cur.0] {
            let a = self.choice[cur.0].expect("decision node has a choice");
            out.push((cur, actions[a].0.clone()));
            cur = actions[a].1;
        }
        out
    }
}

impl GameTree {
    /// Creates an empty tree for `n_players` players.
    #[must_use]
    pub fn new(n_players: usize) -> Self {
        assert!(n_players > 0, "need at least one player");
        GameTree {
            n_players,
            nodes: Vec::new(),
            root: None,
        }
    }

    /// Number of players.
    #[must_use]
    pub fn n_players(&self) -> usize {
        self.n_players
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a terminal node with the given payoff vector.
    pub fn terminal(&mut self, payoffs: Vec<f64>) -> NodeRef {
        assert_eq!(payoffs.len(), self.n_players, "payoff vector length");
        self.nodes.push(Node::Terminal { payoffs });
        NodeRef(self.nodes.len() - 1)
    }

    /// Adds a decision node for `player` with labelled actions leading to
    /// existing children (children must be added first — the arena is in
    /// topological order by construction).
    pub fn decision(
        &mut self,
        player: usize,
        actions: Vec<(impl Into<String>, NodeRef)>,
    ) -> NodeRef {
        assert!(player < self.n_players, "player out of range");
        assert!(!actions.is_empty(), "decision node needs actions");
        for (_, child) in &actions {
            assert!(child.0 < self.nodes.len(), "child must already exist");
        }
        self.nodes.push(Node::Decision {
            player,
            actions: actions.into_iter().map(|(l, c)| (l.into(), c)).collect(),
        });
        NodeRef(self.nodes.len() - 1)
    }

    /// Declares the root node.
    pub fn set_root(&mut self, root: NodeRef) {
        assert!(root.0 < self.nodes.len(), "root must exist");
        self.root = Some(root);
    }

    /// Solves the game by backward induction, producing the SPNE.
    ///
    /// Ties are broken toward the **lowest action index**, which makes the
    /// solution deterministic (the caller can encode preferred tie-breaks
    /// by action order — the paper breaks ties "by selecting a neighbor
    /// with a higher quality").
    #[must_use]
    pub fn solve(&self) -> SpneSolution {
        assert!(self.root.is_some(), "no root set");
        let mut choice = vec![None; self.nodes.len()];
        let mut value: Vec<Vec<f64>> = Vec::with_capacity(self.nodes.len());
        // Children always precede parents in the arena (enforced by the
        // builder), so a single forward pass is a valid bottom-up order.
        for (i, node) in self.nodes.iter().enumerate() {
            let v = match node {
                Node::Terminal { payoffs } => payoffs.clone(),
                Node::Decision { player, actions } => {
                    let mut best_a = 0;
                    let mut best_u = f64::NEG_INFINITY;
                    for (a, (_, child)) in actions.iter().enumerate() {
                        let u = value[child.0][*player];
                        if u > best_u + 1e-12 {
                            best_u = u;
                            best_a = a;
                        }
                    }
                    choice[i] = Some(best_a);
                    value[actions[best_a].1 .0].clone()
                }
            };
            value.push(v);
        }
        SpneSolution { choice, value }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    /// The classic entry-deterrence game:
    ///
    /// Entrant (player 0) chooses Out (payoffs 0, 2) or In; if In, the
    /// Incumbent (player 1) chooses Fight (-1, -1) or Accommodate (1, 1).
    /// SPNE: In, Accommodate. (The "threat" equilibrium Out/Fight is Nash
    /// but not subgame perfect — backward induction must not return it.)
    fn entry_deterrence() -> (GameTree, NodeRef) {
        let mut t = GameTree::new(2);
        let out = t.terminal(vec![0.0, 2.0]);
        let fight = t.terminal(vec![-1.0, -1.0]);
        let accom = t.terminal(vec![1.0, 1.0]);
        let incumbent = t.decision(1, vec![("fight", fight), ("accommodate", accom)]);
        let root = t.decision(0, vec![("out", out), ("in", incumbent)]);
        t.set_root(root);
        (t, root)
    }

    #[test]
    fn entry_deterrence_spne() {
        let (t, root) = entry_deterrence();
        let sol = t.solve();
        assert_eq!(sol.root_value(&t), &[1.0, 1.0]);
        // Root chooses "in" (index 1); incumbent chooses "accommodate".
        assert_eq!(sol.choice[root.0], Some(1));
        let path = sol.equilibrium_path(&t);
        let labels: Vec<&str> = path.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(labels, vec!["in", "accommodate"]);
    }

    #[test]
    fn single_terminal_game() {
        let mut t = GameTree::new(1);
        let leaf = t.terminal(vec![42.0]);
        t.set_root(leaf);
        let sol = t.solve();
        assert_eq!(sol.root_value(&t), &[42.0]);
        assert!(sol.equilibrium_path(&t).is_empty());
    }

    #[test]
    fn ties_break_to_lowest_action_index() {
        let mut t = GameTree::new(1);
        let a = t.terminal(vec![5.0]);
        let b = t.terminal(vec![5.0]);
        let root = t.decision(0, vec![("first", a), ("second", b)]);
        t.set_root(root);
        assert_eq!(t.solve().choice[root.0], Some(0));
    }

    #[test]
    fn three_stage_alternating_game() {
        // Centipede-like 3 stages: player 0, then 1, then 0. Taking stops
        // the game; passing grows the pot but hands control over.
        // Stage payoffs (take): s1 (1,0), s2 (0,2), s3 (3,1); pass-to-end (2,3).
        let mut t = GameTree::new(2);
        let end = t.terminal(vec![2.0, 3.0]);
        let take3 = t.terminal(vec![3.0, 1.0]);
        let s3 = t.decision(0, vec![("take", take3), ("pass", end)]);
        let take2 = t.terminal(vec![0.0, 2.0]);
        let s2 = t.decision(1, vec![("take", take2), ("pass", s3)]);
        let take1 = t.terminal(vec![1.0, 0.0]);
        let s1 = t.decision(0, vec![("take", take1), ("pass", s2)]);
        t.set_root(s1);
        let sol = t.solve();
        // Backward induction: s3 -> take (3 > 2); s2 -> take (2 > 1);
        // s1 -> pass?? u(pass) = value(s2)[0] = 0 < 1 => take.
        let path = sol.equilibrium_path(&t);
        let labels: Vec<&str> = path.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(labels, vec!["take"]);
        assert_eq!(sol.root_value(&t), &[1.0, 0.0]);
    }

    /// SplitMix64 — the gametheory crate deliberately has no dependencies,
    /// so the random-tree test carries its own tiny generator.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Payoff on a small lattice, so sibling subtrees often tie and
        /// stress the tie-break.
        fn payoff(&mut self) -> f64 {
            self.below(7) as f64 - 3.0
        }
    }

    /// Builds a random tree by levels: terminals first, then layers of
    /// decision nodes whose children are drawn from everything built so
    /// far (the arena stays topological by construction).
    fn random_tree(rng: &mut SplitMix64) -> GameTree {
        let n_players = 1 + rng.below(3) as usize;
        let mut t = GameTree::new(n_players);
        let mut refs = Vec::new();
        for _ in 0..(2 + rng.below(6)) {
            let payoffs = (0..n_players).map(|_| rng.payoff()).collect();
            refs.push(t.terminal(payoffs));
        }
        for _ in 0..(3 + rng.below(20)) {
            let player = rng.below(n_players as u64) as usize;
            let n_actions = 1 + rng.below(3) as usize;
            let actions: Vec<(String, NodeRef)> = (0..n_actions)
                .map(|a| {
                    let child = refs[rng.below(refs.len() as u64) as usize];
                    (format!("a{a}"), child)
                })
                .collect();
            refs.push(t.decision(player, actions));
        }
        let root = *refs.last().expect("non-empty");
        t.set_root(root);
        t
    }

    /// Asserts that at every decision node the chosen action is the
    /// lowest-index best response to the continuation values, and that
    /// the node's value is the chosen child's.
    fn assert_spne(t: &GameTree, case: usize) {
        let sol = t.solve();
        for i in 0..t.len() {
            if let Node::Decision { player, actions } = &t.nodes[i] {
                let chosen = sol.choice[i].unwrap();
                let u = |a: usize| sol.value(actions[a].1)[*player];
                for a in 0..actions.len() {
                    assert!(u(a) <= u(chosen) + 1e-12, "case {case} node {i}");
                    if a < chosen {
                        assert!(u(a) < u(chosen) - 1e-12, "case {case} node {i}: tie");
                    }
                }
                assert_eq!(sol.value(NodeRef(i)), sol.value(actions[chosen].1));
            }
        }
    }

    #[test]
    fn spne_in_every_subgame() {
        assert_spne(&entry_deterrence().0, 0);
    }

    #[test]
    fn spne_on_random_trees() {
        // Random trees whose lattice payoffs tie often, so the
        // lowest-index tie-break is exercised in many subgames.
        let mut rng = SplitMix64(0x5eed_2007);
        for case in 0..512 {
            assert_spne(&random_tree(&mut rng), case);
        }
    }

    #[test]
    #[should_panic(expected = "child must already exist")]
    fn forward_references_rejected() {
        let mut t = GameTree::new(1);
        let _ = t.decision(0, vec![("dangling", NodeRef(5))]);
    }

    #[test]
    #[should_panic(expected = "no root set")]
    fn solve_without_root_panics() {
        let _ = GameTree::new(1).solve();
    }

    #[test]
    #[should_panic(expected = "payoff vector length")]
    fn wrong_payoff_arity_rejected() {
        let mut t = GameTree::new(2);
        let _ = t.terminal(vec![1.0]);
    }
}
