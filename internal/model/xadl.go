package model

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
)

// This file implements an xADL-lite codec: an XML architecture description
// document capturing the system model, constraints, and a deployment
// (DSN'04 §4.3 integrates DeSi with xADL 2.0 so design-time properties can
// be captured in an architectural description of the system).

// xadlDoc is the root of an xADL-lite document.
type xadlDoc struct {
	XMLName      xml.Name         `xml:"architecture"`
	Hosts        []xadlElement    `xml:"hosts>host"`
	Components   []xadlElement    `xml:"components>component"`
	Links        []xadlPair       `xml:"physicalLinks>link"`
	Interactions []xadlPair       `xml:"logicalLinks>link"`
	Constraints  *xadlConstraints `xml:"constraints,omitempty"`
	Deployment   []xadlPlacement  `xml:"deployment>place,omitempty"`
}

type xadlElement struct {
	ID     string      `xml:"id,attr"`
	Params []xadlParam `xml:"param"`
}

type xadlPair struct {
	From   string      `xml:"from,attr"`
	To     string      `xml:"to,attr"`
	Params []xadlParam `xml:"param"`
}

type xadlParam struct {
	Name  string  `xml:"name,attr"`
	Value float64 `xml:"value,attr"`
}

type xadlConstraints struct {
	CheckMemory bool           `xml:"checkMemory,attr"`
	Locations   []xadlLocation `xml:"location"`
	Collocate   []xadlColloc   `xml:"collocate"`
	Separate    []xadlColloc   `xml:"separate"`
}

type xadlLocation struct {
	Component string   `xml:"component,attr"`
	Hosts     []string `xml:"host"`
}

type xadlColloc struct {
	A string `xml:"a,attr"`
	B string `xml:"b,attr"`
}

type xadlPlacement struct {
	Component string `xml:"component,attr"`
	Host      string `xml:"host,attr"`
}

func paramsToXADL(p Params) []xadlParam {
	names := p.Names()
	out := make([]xadlParam, 0, len(names))
	for _, name := range names {
		out = append(out, xadlParam{Name: name, Value: p.Get(name)})
	}
	return out
}

func paramsFromXADL(ps []xadlParam) Params {
	var out Params
	for _, p := range ps {
		out.Set(p.Name, p.Value)
	}
	return out
}

// WriteXADL serializes the system (and optional deployment; pass nil to
// omit) as an xADL-lite XML document.
func WriteXADL(w io.Writer, s *System, d Deployment) error {
	doc := xadlDoc{}
	for _, id := range s.HostIDs() {
		doc.Hosts = append(doc.Hosts, xadlElement{
			ID:     string(id),
			Params: paramsToXADL(s.Hosts[id].Params),
		})
	}
	for _, id := range s.ComponentIDs() {
		doc.Components = append(doc.Components, xadlElement{
			ID:     string(id),
			Params: paramsToXADL(s.Components[id].Params),
		})
	}
	for _, key := range s.LinkKeys() {
		doc.Links = append(doc.Links, xadlPair{
			From:   string(key.A),
			To:     string(key.B),
			Params: paramsToXADL(s.Links[key].Params),
		})
	}
	for _, l := range s.Interactions() {
		doc.Interactions = append(doc.Interactions, xadlPair{
			From:   string(l.Components.A),
			To:     string(l.Components.B),
			Params: paramsToXADL(l.Params),
		})
	}
	cons := &xadlConstraints{CheckMemory: s.Constraints.CheckMemory}
	compIDs := make([]string, 0, len(s.Constraints.Location))
	for c := range s.Constraints.Location {
		compIDs = append(compIDs, string(c))
	}
	sort.Strings(compIDs)
	for _, c := range compIDs {
		set := s.Constraints.Location[ComponentID(c)]
		hosts := make([]string, 0, len(set))
		for h, ok := range set {
			if ok {
				hosts = append(hosts, string(h))
			}
		}
		sort.Strings(hosts)
		cons.Locations = append(cons.Locations, xadlLocation{Component: c, Hosts: hosts})
	}
	for _, p := range s.Constraints.MustCollocate {
		cons.Collocate = append(cons.Collocate, xadlColloc{A: string(p.A), B: string(p.B)})
	}
	for _, p := range s.Constraints.CannotCollocate {
		cons.Separate = append(cons.Separate, xadlColloc{A: string(p.A), B: string(p.B)})
	}
	doc.Constraints = cons

	if d != nil {
		comps := make([]string, 0, len(d))
		for c := range d {
			comps = append(comps, string(c))
		}
		sort.Strings(comps)
		for _, c := range comps {
			doc.Deployment = append(doc.Deployment, xadlPlacement{
				Component: c,
				Host:      string(d[ComponentID(c)]),
			})
		}
	}

	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("encode xADL: %w", err)
	}
	return enc.Flush()
}

// ReadXADL parses an xADL-lite document into a system model and (possibly
// empty) deployment.
func ReadXADL(r io.Reader) (*System, Deployment, error) {
	var doc xadlDoc
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("decode xADL: %w", err)
	}
	s := NewSystem()
	s.Constraints = NewConstraints()
	for _, h := range doc.Hosts {
		s.AddHost(HostID(h.ID), paramsFromXADL(h.Params))
	}
	for _, c := range doc.Components {
		s.AddComponent(ComponentID(c.ID), paramsFromXADL(c.Params))
	}
	for _, l := range doc.Links {
		if _, err := s.AddLink(HostID(l.From), HostID(l.To), paramsFromXADL(l.Params)); err != nil {
			return nil, nil, err
		}
	}
	for _, l := range doc.Interactions {
		if _, err := s.AddInteraction(ComponentID(l.From), ComponentID(l.To), paramsFromXADL(l.Params)); err != nil {
			return nil, nil, err
		}
	}
	if doc.Constraints != nil {
		s.Constraints.CheckMemory = doc.Constraints.CheckMemory
		for _, loc := range doc.Constraints.Locations {
			hosts := make([]HostID, len(loc.Hosts))
			for i, h := range loc.Hosts {
				hosts[i] = HostID(h)
			}
			s.Constraints.Restrict(ComponentID(loc.Component), hosts...)
		}
		for _, p := range doc.Constraints.Collocate {
			s.Constraints.RequireCollocation(ComponentID(p.A), ComponentID(p.B))
		}
		for _, p := range doc.Constraints.Separate {
			s.Constraints.ForbidCollocation(ComponentID(p.A), ComponentID(p.B))
		}
	}
	d := NewDeployment(len(doc.Deployment))
	for _, p := range doc.Deployment {
		d[ComponentID(p.Component)] = HostID(p.Host)
	}
	if len(d) == 0 {
		d = nil
	}
	return s, d, nil
}
