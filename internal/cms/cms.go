// Package cms simulates the cloud management system of the paper's
// architecture (Fig. 1): tenants deploy pods/VMs onto hypervisor nodes and
// control the communication permitted between them by network policies
// (Kubernetes) or security groups (OpenStack). The CMS compiles those
// user-level objects into whitelist + default-deny ACLs and installs them
// at the pods' virtual ports on the hypervisor switches — the red dots of
// Fig. 1, and the injection point of the attack.
//
// The attacker in this model is just another tenant using exactly the same
// API as everyone else; nothing it does is privileged.
package cms

import (
	"fmt"
	"net/netip"
	"sort"

	"policyinject/internal/acl"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/revalidator"
)

// Node is a hypervisor server running one virtual switch.
type Node struct {
	Name   string
	Switch *dataplane.Switch

	nextPort uint32
}

// Pod is a deployed workload attached to a hypervisor port.
type Pod struct {
	Name   string
	Tenant string
	Node   *Node
	IP     netip.Addr
	Port   uint32 // virtual port on the node's switch
	Labels Labels // Kubernetes-style labels, set via SetLabels

	policy       *Policy // applied ingress policy, nil = default allow-all
	fromSelector bool    // policy came from a selector policy

	// installed rules for the current policy, for clean replacement
	rules []*flowtable.Rule
}

// Policy is the tenant-facing network policy: an ingress whitelist for a
// set of pods. It abstracts both Kubernetes NetworkPolicy and OpenStack
// security groups — per the paper, both reduce to the same L3/L4 ACLs.
type Policy struct {
	Name string
	// Ingress is the whitelist applied at the selected pods' ports;
	// everything else is denied (default deny on selected pods).
	Ingress []acl.Entry
	// AllowSrcPortFilters marks policies produced by plugins that permit
	// filtering on the L4 *source* port (the paper names Calico). The CMS
	// rejects source-port entries otherwise, mirroring the capability
	// split the paper describes between stock Kubernetes/OpenStack and
	// Calico.
	AllowSrcPortFilters bool
	// Stateful compiles the policy as a connection-tracking security
	// group (the OpenStack flavour): whitelist entries admit and commit
	// new connections, established/reply traffic rides the conntrack
	// shortcut. Requires nodes whose switches have conntrack enabled.
	Stateful bool
	// ExplicitVerdicts honors each entry's Action field, letting a policy
	// carry deny exceptions between its allows. Off (the default), every
	// ingress entry is installed as an allow — the whitelist reading, and
	// the zero Action value would otherwise read as deny.
	ExplicitVerdicts bool
}

// Cluster is the CMS state: nodes, tenants, pods and policies.
type Cluster struct {
	nodes map[string]*Node
	pods  map[string]*Pod

	// selectorPolicies are the tenant's label-selector policies, applied
	// and reconciled by ApplySelectorPolicy / SetLabels / DeployPod.
	selectorPolicies map[string][]*selectorPolicy

	// SwitchOpts configure the switches of nodes added with AddNode (each
	// node gets its own tier instances, assembled fresh from the options).
	SwitchOpts []dataplane.Option

	rev    *revalidator.Revalidator // cluster-wide maintenance actor, if attached
	binder PortBinder               // port->tenant attribution sink, if attached

	nextIP uint32 // pod IP allocator within 172.16.0.0/12
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{
		nodes:            make(map[string]*Node),
		pods:             make(map[string]*Pod),
		selectorPolicies: make(map[string][]*selectorPolicy),
		nextIP:           0xac100001, // 172.16.0.1
	}
}

// AddNode provisions a hypervisor node with a fresh switch. With a
// revalidator attached the new switch immediately comes under cluster-wide
// maintenance.
func (c *Cluster) AddNode(name string) (*Node, error) {
	if _, ok := c.nodes[name]; ok {
		return nil, fmt.Errorf("cms: node %q exists", name)
	}
	n := &Node{Name: name, Switch: dataplane.New(name, c.SwitchOpts...)}
	c.nodes[name] = n
	if c.rev != nil {
		c.rev.Attach(n.Switch)
	}
	return n, nil
}

// AttachRevalidator puts every node switch — current and future — under
// rev's maintenance: the cluster-wide view of the OVS revalidator threads
// running on each hypervisor. The timeline owning the cluster drives rev
// with Tick alongside its traffic.
func (c *Cluster) AttachRevalidator(rev *revalidator.Revalidator) {
	c.rev = rev
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic shard assignment
	for _, name := range names {
		rev.Attach(c.nodes[name].Switch)
	}
}

// Revalidator returns the attached maintenance actor, or nil.
func (c *Cluster) Revalidator() *revalidator.Revalidator { return c.rev }

// PortBinder learns which tenant owns which virtual port — the CMS is
// the only layer that knows, and the guard's mask ledger needs it to
// attribute minted megaflow masks (guard.MaskLedger implements this).
type PortBinder interface {
	BindPort(port uint32, tenant string)
}

// AttachPortLedger registers a port->tenant attribution sink: ports of
// already-deployed pods are bound immediately, future DeployPod calls
// bind as they allocate.
func (c *Cluster) AttachPortLedger(b PortBinder) {
	c.binder = b
	names := make([]string, 0, len(c.pods))
	for name := range c.pods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := c.pods[name]
		b.BindPort(p.Port, p.Tenant)
	}
}

// Node returns a node by name, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// DeployPod schedules a pod for a tenant onto a node, allocating an IP and
// a virtual port. Without a policy the pod starts open (allow-all), as
// both Kubernetes and OpenStack do before any policy selects the pod.
func (c *Cluster) DeployPod(tenant, name, nodeName string) (*Pod, error) {
	n := c.nodes[nodeName]
	if n == nil {
		return nil, fmt.Errorf("cms: no node %q", nodeName)
	}
	if _, ok := c.pods[name]; ok {
		return nil, fmt.Errorf("cms: pod %q exists", name)
	}
	ipBytes := [4]byte{byte(c.nextIP >> 24), byte(c.nextIP >> 16), byte(c.nextIP >> 8), byte(c.nextIP)}
	c.nextIP++
	n.nextPort++
	p := &Pod{
		Name:   name,
		Tenant: tenant,
		Node:   n,
		IP:     netip.AddrFrom4(ipBytes),
		Port:   n.nextPort,
	}
	n.Switch.AddPort(p.Port, name)
	if c.binder != nil {
		c.binder.BindPort(p.Port, tenant)
	}
	c.pods[name] = p
	// Open by default: allow any ingress at this port until a policy
	// selects the pod.
	p.rules = append(p.rules, n.Switch.InstallRule(flowtable.Rule{
		Match:    portMatch(p.Port),
		Priority: acl.EntryPriority,
		Action:   flowtable.Action{Verdict: flowtable.Allow},
		Comment:  fmt.Sprintf("pod %s default-open", name),
	}))
	if err := c.reconcile(tenant); err != nil {
		return nil, err
	}
	return p, nil
}

// Pod returns a pod by name, or nil.
func (c *Cluster) Pod(name string) *Pod { return c.pods[name] }

// Pods returns all pods sorted by name.
func (c *Cluster) Pods() []*Pod {
	out := make([]*Pod, 0, len(c.pods))
	for _, p := range c.pods {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func portMatch(port uint32) flow.Match {
	var m flow.Match
	m.Key.Set(flow.FieldInPort, uint64(port))
	m.Mask.SetExact(flow.FieldInPort)
	return m
}

// ApplyPolicy installs (or replaces) the ingress policy of a pod owned by
// tenant. The CMS performs the admission checks a real control plane
// would: tenancy, entry validity, and the source-port capability gate.
// Note what it cannot check — that a *valid* whitelist is also *cheap to
// evaluate*; that gap is the paper's point.
func (c *Cluster) ApplyPolicy(tenant, podName string, pol *Policy) error {
	p := c.pods[podName]
	if p == nil {
		return fmt.Errorf("cms: no pod %q", podName)
	}
	if p.Tenant != tenant {
		return fmt.Errorf("cms: tenant %q does not own pod %q", tenant, podName)
	}
	theACL := &acl.ACL{Comment: pol.Name, Stateful: pol.Stateful}
	for _, e := range pol.Ingress {
		if !e.SrcPort.Any() && !pol.AllowSrcPortFilters {
			return fmt.Errorf("cms: policy %q filters on the L4 source port; enable a plugin that supports it (e.g. Calico)", pol.Name)
		}
		if pol.ExplicitVerdicts && e.Action == flowtable.Deny {
			theACL.Deny(e) // explicit exception carved out of the whitelist
		} else {
			theACL.Allow(e) // ingress entries are whitelist entries
		}
	}
	rules, err := theACL.Compile()
	if err != nil {
		return fmt.Errorf("cms: policy %q: %w", pol.Name, err)
	}
	// Scope every rule (including the default deny) to the pod's port.
	sw := p.Node.Switch
	for _, old := range p.rules {
		sw.RemoveRule(old)
	}
	p.rules = p.rules[:0]
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, uint64(p.Port))
		r.Match.Mask.SetExact(flow.FieldInPort)
		r.Comment = fmt.Sprintf("%s@%s: %s", pol.Name, podName, r.Comment)
		p.rules = append(p.rules, sw.InstallRule(r))
	}
	p.policy = pol
	p.fromSelector = false
	return nil
}

// RemovePolicy reverts a pod to its default-open state.
func (c *Cluster) RemovePolicy(tenant, podName string) error {
	p := c.pods[podName]
	if p == nil {
		return fmt.Errorf("cms: no pod %q", podName)
	}
	if p.Tenant != tenant {
		return fmt.Errorf("cms: tenant %q does not own pod %q", tenant, podName)
	}
	sw := p.Node.Switch
	for _, old := range p.rules {
		sw.RemoveRule(old)
	}
	p.rules = p.rules[:0]
	p.rules = append(p.rules, sw.InstallRule(flowtable.Rule{
		Match:    portMatch(p.Port),
		Priority: acl.EntryPriority,
		Action:   flowtable.Action{Verdict: flowtable.Allow},
		Comment:  fmt.Sprintf("pod %s default-open", podName),
	}))
	p.policy = nil
	p.fromSelector = false
	return nil
}

// Policy returns the pod's applied policy, or nil.
func (p *Pod) Policy() *Policy { return p.policy }

// String renders the cluster inventory.
func (c *Cluster) String() string {
	s := fmt.Sprintf("cluster: %d nodes, %d pods\n", len(c.nodes), len(c.pods))
	for _, p := range c.Pods() {
		pol := "open"
		if p.policy != nil {
			pol = p.policy.Name
		}
		s += fmt.Sprintf("  pod %s tenant=%s node=%s ip=%s port=%d policy=%s\n",
			p.Name, p.Tenant, p.Node.Name, p.IP, p.Port, pol)
	}
	return s
}
