// Clustering: Module 5's k-means experience, including the visualization
// students reported enjoying — an ASCII scatter plot that shows the data
// "cluster correctly" — plus the comparison of the module's two
// communication options.
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/data"
	"repro/internal/modules/kmeans"
	"repro/internal/mpi"
)

func main() {
	const (
		n = 4096
		k = 5
	)
	pts, _ := data.GaussianMixture(n, 2, k, 4.0, 100, 7)

	var centroids data.Points
	var assignments []int
	for _, opt := range []kmeans.CommOption{kmeans.WeightedMeans, kmeans.ExplicitAssignments} {
		assign := make([]int, n)
		var res kmeans.Result
		var c0 *mpi.Comm
		err := mpi.Run(4, func(c *mpi.Comm) error {
			r, local, off, err := kmeans.Distributed(c, pts, kmeans.Config{
				K: k, MaxIter: 100, Seed: 3, Option: opt,
			})
			if err != nil {
				return err
			}
			copy(assign[off:], local)
			if c.Rank() == 0 {
				res, c0 = r, c
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		// Read the world's wire total once every rank has exited: no
		// send of the final allreduce can still be in flight.
		wire := c0.Stats().TotalWire
		fmt.Printf("%-22v %2d iterations, inertia %.0f, %8d wire bytes\n",
			opt, res.Iterations, res.Inertia, wire)
		centroids = res.Centroids
		assignments = assign
	}
	fmt.Println("\nboth options converge to identical clusters; the weighted-means")
	fmt.Println("option moves a tiny fraction of the bytes.")

	fmt.Println("\nclustered data (letters = clusters, * = centroids):")
	fmt.Print(scatter(pts, assignments, centroids, 72, 28))
}

// scatter renders points colored by assignment on a width×height grid.
func scatter(pts data.Points, assign []int, centroids data.Points, width, height int) string {
	minX, maxX := pts.At(0)[0], pts.At(0)[0]
	minY, maxY := pts.At(0)[1], pts.At(0)[1]
	for i := 0; i < pts.N(); i++ {
		p := pts.At(i)
		if p[0] < minX {
			minX = p[0]
		}
		if p[0] > maxX {
			maxX = p[0]
		}
		if p[1] < minY {
			minY = p[1]
		}
		if p[1] > maxY {
			maxY = p[1]
		}
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, ch byte) {
		gx := int((x - minX) / (maxX - minX) * float64(width-1))
		gy := int((y - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-gy][gx] = ch
	}
	for i := 0; i < pts.N(); i++ {
		plot(pts.At(i)[0], pts.At(i)[1], byte('a'+assign[i]%26))
	}
	for c := 0; c < centroids.N(); c++ {
		plot(centroids.At(c)[0], centroids.At(c)[1], '*')
	}
	var b strings.Builder
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	return b.String()
}
