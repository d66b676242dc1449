package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bcrdb"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
)

// identitySecret makes every identity a pure function of this string
// (Options.IdentitySecret), so the generator signs with the same keys the
// network's genesis certificates name without asking the network.
const identitySecret = "perfbench"

const (
	numOrgs     = 3
	usersPerOrg = 2
)

type user struct {
	name   string
	org    int
	signer *identity.Signer
}

func orgsAndUsers() ([]bcrdb.Org, []user, error) {
	var orgs []bcrdb.Org
	var users []user
	for i := 0; i < numOrgs; i++ {
		org := bcrdb.Org{Name: fmt.Sprintf("org%d", i+1)}
		for u := 0; u < usersPerOrg; u++ {
			name := fmt.Sprintf("user%d_%d", i+1, u)
			s, err := identity.Deterministic(name, org.Name, identity.RoleClient, identitySecret)
			if err != nil {
				return nil, nil, err
			}
			org.Users = append(org.Users, name)
			users = append(users, user{name: name, org: i, signer: s})
		}
		orgs = append(orgs, org)
	}
	return orgs, users, nil
}

// invocation is one generated transaction. Order-then-execute ones are
// signed before the run (payload set); execute-order ones are signed
// when due, because their snapshot is the home node's height then.
type invocation struct {
	user     int
	contract string
	args     []bcrdb.Value
	id       string // order-then-execute: seeded random nonce id
	payload  []byte
	signNs   int64
}

// txGen draws the transaction stream from the seed. Invocation n is the
// same for a given seed whatever the run's timing.
type txGen struct {
	spec  Spec
	users []user
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int
	seq   int64
}

func newTxGen(spec Spec, users []user, seed int64) *txGen {
	g := &txGen{spec: spec, users: users, rng: rand.New(rand.NewSource(seed))}
	if spec.Contract == "transfer" {
		// Zipf ranks map through a seeded permutation so the hot
		// accounts fall in different branches.
		g.perm = g.rng.Perm(spec.PreloadRows)
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, spec.ZipfV, uint64(spec.PreloadRows-1))
	}
	return g
}

func (g *txGen) next() *invocation {
	seq := g.seq
	g.seq++
	inv := &invocation{user: int(seq % int64(len(g.users)))}
	if g.spec.Contract == "transfer" {
		from := g.perm[g.zipf.Uint64()] + 1
		to := g.perm[g.zipf.Uint64()] + 1
		for to == from {
			to = g.perm[g.zipf.Uint64()] + 1
		}
		amt := 1 + g.rng.Int63n(maxTransfer)
		inv.contract = "transfer"
		inv.args = []bcrdb.Value{bcrdb.Int(int64(from)), bcrdb.Int(int64(to)), bcrdb.Int(amt), bcrdb.Int(seq)}
		return inv
	}
	var nonce [16]byte
	g.rng.Read(nonce[:])
	inv.id = hex.EncodeToString(nonce[:])
	inv.contract = "simple_insert"
	inv.args = []bcrdb.Value{
		bcrdb.Int(1_000_000 + seq),
		bcrdb.Text(fmt.Sprintf("key-%d", seq)),
		bcrdb.Text(fmt.Sprintf("val-%d", seq)),
	}
	return inv
}

func (g *txGen) batch(n int) []*invocation {
	out := make([]*invocation, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// sign builds and signs the transaction. snapshot is used only by the
// execute-order flow, whose id is the §3.4.3 hash including it.
func (g *txGen) sign(inv *invocation, flow bcrdb.Flow, snapshot int64) (string, []byte, int64) {
	u := g.users[inv.user]
	tx := &ledger.Transaction{Username: u.name, Contract: inv.contract, Args: inv.args}
	if flow == bcrdb.ExecuteOrder {
		tx.Snapshot = snapshot
		tx.ID = ledger.ComputeID(u.name, inv.contract, inv.args, snapshot)
	} else {
		tx.ID = inv.id
	}
	msg := tx.SignBytes()
	t0 := time.Now()
	tx.Signature = u.signer.Sign(msg)
	return tx.ID, ledger.MarshalTransaction(tx), int64(time.Since(t0))
}

// presign signs a batch of order-then-execute invocations on workers
// goroutines before the measured window.
func (g *txGen) presign(invs []*invocation, workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(invs); i += workers {
				_, invs[i].payload, invs[i].signNs = g.sign(invs[i], bcrdb.OrderThenExecute, 0)
			}
		}(w)
	}
	wg.Wait()
}
