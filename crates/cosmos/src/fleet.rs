//! One value per agent, built on first touch.
//!
//! "We allocate a Cosmos predictor for every cache or directory in the
//! machine" (§3.2): every replay and every live policy keeps some state
//! per `(node, role)` agent and meets its agents in trace order. A
//! [`Fleet`] is that table, once: a flat vector with two slots per node,
//! so the hot loops index instead of hashing a `(NodeId, Role)` pair.

use stache::{NodeId, Role};

/// The roles, in [`role_index`] order.
pub(crate) const ROLES: [Role; 2] = [Role::Cache, Role::Directory];

/// Dense index of a role: caches 0, directories 1.
#[inline]
pub(crate) fn role_index(role: Role) -> usize {
    match role {
        Role::Cache => 0,
        Role::Directory => 1,
    }
}

/// Flat index of a `(node, role)` agent: two slots per node.
#[inline]
fn agent_index(node: NodeId, role: Role) -> usize {
    node.index() * 2 + role_index(role)
}

/// A lazily-built table of per-agent state.
#[derive(Debug, Clone)]
pub struct Fleet<P> {
    agents: Vec<Option<P>>,
}

impl<P> Default for Fleet<P> {
    fn default() -> Self {
        Fleet { agents: Vec::new() }
    }
}

impl<P> Fleet<P> {
    /// The agent's value, made by `build` the first time it is asked for.
    #[inline]
    pub fn agent(&mut self, node: NodeId, role: Role, build: impl FnOnce() -> P) -> &mut P {
        let idx = agent_index(node, role);
        if idx >= self.agents.len() {
            self.agents.resize_with(idx + 1, || None);
        }
        self.agents[idx].get_or_insert_with(build)
    }

    /// The agent's value, if it has been built.
    #[inline]
    pub fn get(&self, node: NodeId, role: Role) -> Option<&P> {
        self.agents.get(agent_index(node, role))?.as_ref()
    }

    /// Every built agent, in `(node, role)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Role, &P)> {
        self.agents
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((NodeId::new(i / 2), ROLES[i % 2], p.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agents_are_built_once_and_listed_in_node_role_order() {
        let mut fleet: Fleet<Vec<u32>> = Fleet::default();
        let mut built = 0;
        for (node, role, v) in [
            (3, Role::Directory, 1),
            (0, Role::Cache, 2),
            (3, Role::Directory, 3),
            (3, Role::Cache, 4),
        ] {
            fleet
                .agent(NodeId::new(node), role, || {
                    built += 1;
                    Vec::new()
                })
                .push(v);
        }
        assert_eq!(built, 3);
        assert_eq!(
            fleet.get(NodeId::new(3), Role::Directory),
            Some(&vec![1, 3])
        );
        assert_eq!(fleet.get(NodeId::new(1), Role::Cache), None);
        assert_eq!(fleet.get(NodeId::new(9), Role::Cache), None);
        let listed: Vec<_> = fleet.iter().map(|(n, r, v)| (n.index(), r, v[0])).collect();
        assert_eq!(
            listed,
            [
                (0, Role::Cache, 2),
                (3, Role::Cache, 4),
                (3, Role::Directory, 1)
            ]
        );
    }
}
