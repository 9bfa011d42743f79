// Quickstart: write a custom lambda against the Match+Lambda
// abstraction, compile it with the paper's optimizer, and run it two
// ways — directly on simulated SmartNIC firmware and through the full
// functional control plane (gateway + workers).
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"lambdanic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Write a lambda in the IR (the Micro-C stand-in): an adder that
	// reads two numbers parsed from the request and emits their sum.
	b := lambdanic.NewBuilder("adder")
	b.HdrGet(1, lambdanic.FieldArg0)
	b.HdrGet(2, lambdanic.FieldArg1)
	b.Add(3, 1, 2)
	b.EmitByte(3)
	b.MovImm(4, lambdanic.StatusForward)
	b.Ret(4)
	entry := b.MustBuild()

	spec := &lambdanic.LambdaSpec{
		Name:  "adder",
		ID:    100,
		Entry: entry,
		Uses:  []string{"addreq"},
	}

	// 2. Compose with a synthesized parser for the request header, then
	// run the three target-specific optimizations (§5.1).
	prog, err := lambdanic.Compose([]*lambdanic.LambdaSpec{spec}, lambdanic.ComposeOptions{
		Headers: []lambdanic.HeaderSpec{{
			Name: "addreq",
			Fields: []lambdanic.FieldSpec{
				{Slot: lambdanic.FieldArg0, Offset: 0, Bytes: 1},
				{Slot: lambdanic.FieldArg1, Offset: 1, Bytes: 1},
			},
		}},
	})
	if err != nil {
		return err
	}
	opt, passes, err := lambdanic.Optimize(prog, lambdanic.AllPasses())
	if err != nil {
		return err
	}
	for _, p := range passes {
		fmt.Printf("  %-24s %4d instructions\n", p.Pass, p.Instructions)
	}

	// 3. Link and execute on the NIC firmware path.
	exe, err := lambdanic.Link(opt)
	if err != nil {
		return err
	}
	resp, err := exe.Execute(&lambdanic.NICRequest{
		LambdaID: 100,
		Payload:  []byte{19, 23},
		Packets:  1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("NIC firmware: 19 + 23 = %d "+
		"(%d instructions retired)\n", resp.Payload[0], resp.Stats.Instructions)

	// 4. Run the paper's web-server benchmark lambda through the full
	// functional control plane: manager, Raft control store, gateway,
	// two workers.
	d, err := lambdanic.NewDeployment(lambdanic.DeploymentConfig{Workers: 2, Seed: 1})
	if err != nil {
		return err
	}
	defer d.Close()
	web := lambdanic.WebServer()
	if err := d.Deploy(web); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	page, err := d.Invoke(ctx, web.ID, web.MakeRequest(1))
	if err != nil {
		return err
	}
	fmt.Printf("gateway path: %q\n", trimZeros(page))
	return nil
}

func trimZeros(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
